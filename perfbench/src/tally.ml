(* Sample collections and the order statistics the benchmark reports.

   A percentile is reported only when at least [min_tail] samples lie
   beyond it (the p99 of 999 samples rests on 9 points and is refused);
   asking for an unsupported percentile is an error, never a silent 0. *)

exception Unsupported of string

type t = { mutable data : float array; mutable n : int }

let create () = { data = Array.make 1024 0.0; n = 0 }

let add t v =
  if t.n = Array.length t.data then begin
    let d = Array.make (2 * t.n) 0.0 in
    Array.blit t.data 0 d 0 t.n;
    t.data <- d
  end;
  t.data.(t.n) <- v;
  t.n <- t.n + 1

let count t = t.n

let sum t =
  let s = ref 0.0 in
  for i = 0 to t.n - 1 do
    s := !s +. t.data.(i)
  done;
  !s

let mean t = if t.n = 0 then 0.0 else sum t /. float t.n

let sorted t =
  let a = Array.sub t.data 0 t.n in
  Array.sort Float.compare a;
  a

let min_tail = 10

(* Nearest-rank percentile over an ascending array: the smallest sample
   with at least [pct]% of the samples at or below it. Integer rank
   arithmetic, so p99 of exactly 1000 samples has 10 samples beyond it. *)
let percentile_sorted a ~pct =
  let n = Array.length a in
  if pct <= 0 || pct >= 100 then invalid_arg "Tally.percentile: pct";
  let rank = ((pct * n) + 99) / 100 - 1 in
  let beyond = n - 1 - rank in
  if n = 0 || beyond < min_tail then
    raise
      (Unsupported
         (Printf.sprintf "p%d needs >= %d samples beyond it; %d samples give %d"
            pct min_tail n (max 0 beyond)));
  a.(rank)

let percentile t ~pct = percentile_sorted (sorted t) ~pct

(* The median of a small set of repeated measurements (e.g. set-up
   times), where the tail rule does not apply. *)
let median_of l =
  match List.sort Float.compare l with
  | [] -> invalid_arg "Tally.median_of: empty"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
