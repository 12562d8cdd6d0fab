(* Seeded input generation. Every row the program sees comes from an
   [Xorshift] stream seeded by [--seed]; the same seed gives the same rows,
   requests and schedule. *)

open Littletable
module Xorshift = Lt_util.Xorshift
module Clock = Lt_util.Clock

let col name ctype default = { Schema.name; ctype; default }

(* UsageGrabber-shaped rows (Figure 1): key (network, device, ts). *)
let usage_schema () =
  Schema.create
    ~columns:
      [
        col "network" Value.T_int64 (Value.Int64 0L);
        col "device" Value.T_int64 (Value.Int64 0L);
        col "ts" Value.T_timestamp (Value.Timestamp 0L);
        col "bytes" Value.T_int64 (Value.Int64 0L);
        col "rate" Value.T_double (Value.Double 0.0);
      ]
    ~pkey:[ "network"; "device"; "ts" ]

(* EventsGrabber-style rows: sparse, keyed the same way, small text. *)
let event_schema () =
  Schema.create
    ~columns:
      [
        col "network" Value.T_int64 (Value.Int64 0L);
        col "device" Value.T_int64 (Value.Int64 0L);
        col "ts" Value.T_timestamp (Value.Timestamp 0L);
        col "kind" Value.T_string (Value.String "");
        col "detail" Value.T_string (Value.String "");
      ]
    ~pkey:[ "network"; "device"; "ts" ]

(* Simulated time starts on a week boundary in mid-2025. *)
let base_ts = Period.align 1_750_000_000_000_000L ~unit_len:Clock.week

let usage_row ~net ~dev ~ts ~bytes ~rate =
  [|
    Value.Int64 (Int64.of_int net);
    Value.Int64 (Int64.of_int dev);
    Value.Timestamp ts;
    Value.Int64 (Int64.of_int bytes);
    Value.Double rate;
  |]

(* A device's byte count for one polling interval. *)
let draw_bytes rng = 1000 + Xorshift.int rng 4_000_000

let rate_of ~bytes ~interval = float bytes /. Clock.to_float_s interval

let kinds = [| "dhcp_lease"; "assoc"; "disassoc"; "auth_fail"; "rogue_ap" |]

let alnum = "abcdefghijklmnopqrstuvwxyz0123456789"

let draw_text rng n = String.init n (fun _ -> alnum.[Xorshift.int rng 36])

let event_row rng ~net ~dev ~ts =
  [|
    Value.Int64 (Int64.of_int net);
    Value.Int64 (Int64.of_int dev);
    Value.Timestamp ts;
    Value.String kinds.(Xorshift.int rng (Array.length kinds));
    Value.String (draw_text rng (8 + Xorshift.int rng 32));
  |]

(* A shuffled deck: every [Array.length items] draws return each item
   once, in a seeded order, so a run's op mix matches the stated shares
   exactly instead of drifting with the seed. *)
type 'a deck = { deck_rng : Xorshift.t; items : 'a array; mutable next : int }

let deck rng items = { deck_rng = rng; items = Array.copy items; next = Array.length items }

let draw d =
  let n = Array.length d.items in
  if d.next = n then begin
    for i = n - 1 downto 1 do
      let j = Xorshift.int d.deck_rng (i + 1) in
      let x = d.items.(i) in
      d.items.(i) <- d.items.(j);
      d.items.(j) <- x
    done;
    d.next <- 0
  end;
  d.next <- d.next + 1;
  d.items.(d.next - 1)

let repeat n x = Array.make n x

(* Query lookbacks after Figure 10: 38% within two hours, 30% one to two
   days, 24% two to seven days, 8% one to three months. *)
type lookback = Hours | Days | Week | Months

let lookbacks =
  Array.concat [ repeat 19 Hours; repeat 15 Days; repeat 12 Week; repeat 4 Months ]

(* A lookback of class [cls], capped at [max_lookback]. *)
let lookback rng cls ~max_lookback =
  let f = Xorshift.float rng in
  let hours h = Int64.of_float (h *. Int64.to_float Clock.hour) in
  let l =
    match cls with
    | Hours -> hours (1.0 +. f)
    | Days -> hours (24.0 *. (1.0 +. f))
    | Week -> hours (168.0 *. (0.3 +. (0.7 *. f)))
    | Months -> hours (720.0 *. (1.0 +. (2.0 *. f)))
  in
  min l max_lookback
