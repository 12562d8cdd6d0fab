(* Monotonic nanosecond clock for every time the benchmark reports.
   [Lt_util.Clock.system] reads gettimeofday: microsecond resolution and
   not monotonic, so it is unfit for span arithmetic. *)

let now_ns () = Monotonic_clock.now ()

let ns_between t0 t1 = Int64.to_float (Int64.sub t1 t0)

let s_since t0 = ns_between t0 (now_ns ()) /. 1e9

(* [time f] runs [f] and returns its result with the elapsed ns. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, ns_between t0 (now_ns ()))
