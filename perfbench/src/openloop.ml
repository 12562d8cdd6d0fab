(* Open-loop scheduling: slot [i] is due [i / rate] seconds after the
   start whether or not earlier requests have finished. A request is
   timed from its due time, so a stall is also charged to the requests
   it delays; how late the generator started each one is reported
   separately. The clock and the wait are parameters so tests can drive
   a fake clock. *)

type slot = { index : int; due : int64; start : int64; stop : int64 }

let latency_ns s = Mclock.ns_between s.due s.stop
let lateness_ns s = Float.max 0.0 (Mclock.ns_between s.due s.start)

(* Between slots the generator spins, yielding the runtime lock each
   turn, instead of sleeping. An idle sleep let the virtual CPU halt and
   the next request ran late and on a cold core, by amounts that swung
   with whatever else the host ran: the median of the mix moved by half
   from run to run when sleeping, and by under a tenth when spinning. *)
let spin_until ~now due =
  while now () < due do
    Thread.yield ()
  done

(* Runs [op i] for each slot in order and hands [after] the slot's times
   with [op]'s result; [after] runs outside the timed interval. *)
let run ?(now = Mclock.now_ns) ?(wait_until = spin_until ~now) ~rate ~slots ~op ~after () =
  let t0 = now () in
  for i = 0 to slots - 1 do
    let due = Int64.add t0 (Int64.of_float (float i /. rate *. 1e9)) in
    if now () < due then wait_until due;
    let start = now () in
    let r = op i in
    let stop = now () in
    after { index = i; due; start; stop } r
  done
