(* The UsageGrabber/EventsGrabber stream shared by the write workloads:
   [nets] x [devs] devices polled every [interval] of simulated time, in
   (network, device) order, plus sparse event rows. Simulated time is
   carried by the rows, so flush ages and merge delays are a function of
   rows written, not of how fast the machine is. *)

open Littletable
module Xorshift = Lt_util.Xorshift

type t = {
  rng : Xorshift.t;
  nets : int;
  devs : int;
  interval : int64;
  mutable cycle : int;
  mutable pos : int;  (** next device within the cycle *)
  mutable seq : int;  (** event rows so far in the cycle *)
}

let create ~seed ~nets ~devs ~interval =
  { rng = Xorshift.create seed; nets; devs; interval; cycle = 0; pos = 0; seq = 0 }

let cycle_ts t = Int64.add Gen.base_ts (Int64.mul (Int64.of_int t.cycle) t.interval)

(* The next [n] usage rows, crossing into the next poll cycle as needed. *)
let usage t n =
  let acc = ref [] in
  for _ = 1 to n do
    if t.pos = t.nets * t.devs then begin
      t.cycle <- t.cycle + 1;
      t.pos <- 0;
      t.seq <- 0
    end;
    let bytes = Gen.draw_bytes t.rng in
    acc :=
      Gen.usage_row ~net:(t.pos / t.devs) ~dev:(t.pos mod t.devs) ~ts:(cycle_ts t) ~bytes
        ~rate:(Gen.rate_of ~bytes ~interval:t.interval)
      :: !acc;
    t.pos <- t.pos + 1
  done;
  List.rev !acc

(* Up to [n] event rows for random devices, stamped just after the
   current cycle's poll so their keys never repeat. *)
let events t n =
  let acc = ref [] in
  for _ = 1 to n do
    t.seq <- t.seq + 1;
    let net = Xorshift.int t.rng t.nets and dev = Xorshift.int t.rng t.devs in
    acc := Gen.event_row t.rng ~net ~dev ~ts:(Int64.add (cycle_ts t) (Int64.of_int t.seq)) :: !acc
  done;
  List.rev !acc

let row_ts row = match row.(2) with Value.Timestamp ts -> ts | _ -> invalid_arg "row_ts"

let max_ts rows = List.fold_left (fun a r -> max a (row_ts r)) Int64.min_int rows
