(* Tests of the benchmark's own logic: the percentile tail rule, span
   self time, open-loop due-time latency and generator lateness, the
   correctness gate rejecting a corrupted answer, throughput accounting
   and the fleet schedule. *)

open Ltbench
open Littletable

let tally_of l =
  let t = Tally.create () in
  List.iter (Tally.add t) l;
  t

let ints n = List.init n (fun i -> float (i + 1))

let test_tail_rule () =
  (* p99 of 1000 samples: rank 990, 10 samples beyond it *)
  Alcotest.(check (float 0.0)) "p99 of 1..1000" 990.0 (Tally.percentile (tally_of (ints 1000)) ~pct:99);
  Alcotest.check_raises "p99 of 999 samples is refused"
    (Tally.Unsupported "p99 needs >= 10 samples beyond it; 999 samples give 9") (fun () ->
      ignore (Tally.percentile (tally_of (ints 999)) ~pct:99));
  Alcotest.(check (float 0.0)) "p50 of 1..20" 10.0 (Tally.percentile (tally_of (ints 20)) ~pct:50);
  Alcotest.check_raises "p50 of 19 samples is refused"
    (Tally.Unsupported "p50 needs >= 10 samples beyond it; 19 samples give 9") (fun () ->
      ignore (Tally.percentile (tally_of (ints 19)) ~pct:50));
  Alcotest.check_raises "no samples"
    (Tally.Unsupported "p50 needs >= 10 samples beyond it; 0 samples give 0") (fun () ->
      ignore (Tally.percentile (Tally.create ()) ~pct:50));
  (* order of insertion does not matter *)
  Alcotest.(check (float 0.0)) "unsorted input" 990.0
    (Tally.percentile (tally_of (List.rev (ints 1000))) ~pct:99)

let span ?(layer = "server") ?(node = 0) t0 t1 =
  { Spans.layer; kind = "query"; req = 1; t0 = Int64.of_int t0; t1 = Int64.of_int t1; rows = 0; node }

let test_self_time () =
  let router = span ~layer:"router" 0 100 in
  (* two overlapping shard spans count once; a span running past the
     router's end counts only inside it *)
  let shards = [ span ~node:0 10 30; span ~node:1 20 50; span ~node:2 90 120 ] in
  Alcotest.(check (float 0.0)) "covered" 50.0 (Spans.covered_ns ~lo:0L ~hi:100L shards);
  Alcotest.(check (float 0.0)) "router self" 50.0 (Spans.self_ns router shards);
  Alcotest.(check (float 0.0)) "no children" 100.0 (Spans.self_ns router []);
  Alcotest.(check (float 0.0)) "disjoint children" 70.0
    (Spans.self_ns router [ span 0 10; span 40 50; span 80 90 ])

(* Seam ledger over one fanned-out routed query: net = round trip minus
   the router span; router self = router span minus shard spans. *)
let test_seams () =
  let s ~layer ?(node = 0) ?(rows = 0) t0 t1 =
    { Spans.layer; kind = "query"; req = 7; t0 = Int64.of_int t0; t1 = Int64.of_int t1; rows; node }
  in
  let spans =
    [
      s ~layer:"client" 0 1000;
      s ~layer:"client.rt" 100 900;
      s ~layer:"router" ~rows:10 200 800;
      s ~layer:"server" ~node:0 ~rows:10 300 400;
      s ~layer:"server" ~node:1 ~rows:5 350 600;
    ]
  in
  let a = Seams.analyze ~front:"router" ~kinds:[ "query" ] spans in
  Alcotest.(check int) "other kinds excluded" 0
    (Seams.analyze ~front:"router" ~kinds:[ "batch" ] spans).ops;
  Alcotest.(check (float 0.0)) "client self" 200.0 a.client_self_ns;
  Alcotest.(check (float 0.0)) "net" 200.0 a.net_ns;
  Alcotest.(check (float 0.0)) "router self" 300.0 a.router_self_ns;
  Alcotest.(check (float 0.0)) "server sum" 350.0 a.server_ns;
  Alcotest.(check int) "fanout" 2 a.fanout;
  Alcotest.(check int) "rows fetched" 15 a.server_rows;
  Alcotest.(check (float 1e-9)) "straggler" (250.0 /. 175.0) (a.straggler_sum /. float a.straggler_n)

(* A fake clock: 1 ms slots; the first op stalls for 3.5 ms, the rest
   take 0.1 ms. Later requests are charged the wait from their due time,
   and the generator reports how late it started each. *)
let test_open_loop () =
  let clock = ref 0L in
  let now () = !clock in
  let advance_ms ms = clock := Int64.add !clock (Int64.of_float (ms *. 1e6)) in
  let wait_until due = clock := max !clock due in
  let got = ref [] in
  Openloop.run ~now ~wait_until ~rate:1000.0 ~slots:5
    ~op:(fun i -> advance_ms (if i = 0 then 3.5 else 0.1))
    ~after:(fun slot () ->
      got := (Openloop.latency_ns slot /. 1e6, Openloop.lateness_ns slot /. 1e6) :: !got)
    ();
  let expect = [ (3.5, 0.0); (2.6, 2.5); (1.7, 1.6); (0.8, 0.7); (0.1, 0.0) ] in
  List.iteri
    (fun i ((el, ex), (gl, gx)) ->
      Alcotest.(check (float 1e-6)) (Printf.sprintf "slot %d latency" i) el gl;
      Alcotest.(check (float 1e-6)) (Printf.sprintf "slot %d lateness" i) ex gx)
    (List.combine expect (List.rev !got))

let row net ts bytes =
  Gen.usage_row ~net ~dev:1 ~ts:(Int64.of_int ts) ~bytes ~rate:(float bytes /. 60.0)

let wrong f =
  match f () with
  | () -> Alcotest.fail "corrupted answer passed the gate"
  | exception Gate.Wrong_answer _ -> ()

let test_gate () =
  let reference = [ row 1 10 500; row 1 20 600; row 2 10 700 ] in
  Gate.check_rows ~what:"exact" ~expected:reference ~actual:reference;
  let corrupted = [ row 1 10 500; row 1 20 601; row 2 10 700 ] in
  wrong (fun () -> Gate.check_rows ~what:"one cell" ~expected:reference ~actual:corrupted);
  wrong (fun () -> Gate.check_rows ~what:"missing row" ~expected:reference ~actual:(List.tl reference));
  wrong (fun () -> Gate.check_rows ~what:"reordered" ~expected:reference ~actual:(List.rev reference));
  let as_double = Array.copy (List.hd reference) in
  as_double.(3) <- Value.Double 500.0;
  wrong (fun () ->
      Gate.check_row_opt ~what:"retyped cell" ~expected:(Some (List.hd reference)) ~actual:(Some as_double));
  wrong (fun () -> Gate.check_row_opt ~what:"lost latest" ~expected:(Some (List.hd reference)) ~actual:None);
  let digest rows =
    let d = Gate.digest () in
    List.iter (Gate.add d ~table:"usage") rows;
    d
  in
  Gate.check_digest ~what:"same multiset" ~expected:(digest reference) ~actual:(digest (List.rev reference));
  wrong (fun () -> Gate.check_digest ~what:"corrupted" ~expected:(digest reference) ~actual:(digest corrupted));
  wrong (fun () ->
      Gate.check_digest ~what:"lost row" ~expected:(digest reference) ~actual:(digest (List.tl reference)))

let test_report () =
  let m name value unit_ = { Report.name; value; unit_ } in
  let good = List.map (fun (n, u) -> m n 1.0 u) Report.end_to_end in
  Alcotest.(check int) "complete" (List.length Report.end_to_end)
    (List.length (Report.validate ~expected:Report.end_to_end good));
  let bad l =
    match Report.validate ~expected:Report.end_to_end l with
    | _ -> Alcotest.fail "bad metric set accepted"
    | exception Report.Bad_metric _ -> ()
  in
  bad (List.tl good);
  bad (m "setup_s" Float.nan "s" :: List.tl good);
  bad (m "setup_s" Float.infinity "s" :: List.tl good);
  bad (List.hd good :: good)

(* Throughput is completed ops and rows per in-flight second over the
   whole window; maintenance counts as in flight unless [~busy:false]. *)
let test_throughput () =
  let o = Live.ops () in
  Live.succeeded o ~kind:"a" ~rows:10 ~latency_ns:5e8 ~busy_ns:5e8;
  Live.succeeded o ~kind:"a" ~rows:30 ~latency_ns:5e8 ~busy_ns:5e8;
  Live.failed o ~busy_ns:1e9;
  Live.background ~busy:false o ~busy_ns:1e9;
  let ops_s, rows_s = Live.throughput o in
  Alcotest.(check (float 1e-9)) "ops/s, open-loop maintenance left out" 1.0 ops_s;
  Alcotest.(check (float 1e-9)) "rows/s" 20.0 rows_s;
  Live.background o ~busy_ns:2e9;
  Alcotest.(check (float 1e-9)) "closed-loop maintenance counts" 0.5 (fst (Live.throughput o))

(* The fleet schedule: one shard's maintenance in every 10th slot, in
   turn; the other slots keep the 8/6/3/3 mix per 20, with a
   [flush_before] in place of every 300th. *)
let test_fleet_schedule () =
  let n = 6000 in
  let count p = List.length (List.filter p (List.init n Fleet.kind_of_slot)) in
  Alcotest.(check int) "maintenance slots" (n / 10)
    (count (function Fleet.Maintain _ -> true | _ -> false));
  Alcotest.(check (list int)) "shards in turn" [ 0; 1; 2; 0 ]
    (List.map
       (fun i -> match Fleet.kind_of_slot i with Fleet.Maintain s -> s | _ -> -1)
       [ 9; 19; 29; 39 ]);
  let ops = n - (n / 10) in
  Alcotest.(check int) "flush_before slots" (ops / 300) (count (( = ) Fleet.Flush));
  (* the [flush_before] takes a [latest] slot *)
  Alcotest.(check int) "latest slots" ((ops * 3 / 20) - (ops / 300)) (count (( = ) Fleet.Latest));
  Alcotest.(check int) "query slots" (ops * 6 / 20) (count (( = ) Fleet.Query))

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentile tail rule" `Quick test_tail_rule;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "seam ledger" `Quick test_seams;
          Alcotest.test_case "open-loop latency and lateness" `Quick test_open_loop;
          Alcotest.test_case "corrupted answers fail the gate" `Quick test_gate;
          Alcotest.test_case "metric validation" `Quick test_report;
          Alcotest.test_case "whole-window throughput" `Quick test_throughput;
          Alcotest.test_case "fleet schedule" `Quick test_fleet_schedule;
        ] );
    ]
