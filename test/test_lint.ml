(* Golden tests for the project-invariant analyzer, driven by the tiny
   source trees under lint_fixtures/. Each fixture only needs to parse:
   the linter never typechecks. *)

module Lint = Lt_lint.Lint

let run ?rules case =
  Lint.run ?rules
    ~roots:[ Lint.root (Filename.concat "lint_fixtures" case) ]
    ()

let rules_of findings = List.map (fun f -> f.Lint.f_rule) findings

let count rule findings =
  List.length (List.filter (fun f -> f.Lint.f_rule = rule) findings)

let check_clean name findings =
  Alcotest.(check (list string))
    name []
    (List.map Lint.to_plain findings)

let test_vfs () =
  let bad = run ~rules:[ "vfs-discipline" ] "vfs_bad" in
  Alcotest.(check int) "two raw fs calls flagged" 2 (count "vfs-discipline" bad);
  Alcotest.(check int) "nothing else" 2 (List.length bad);
  check_clean "vfs_ok clean (incl. lib/vfs exemption)"
    (run ~rules:[ "vfs-discipline" ] "vfs_ok")

let test_lock_safety () =
  let bad = run ~rules:[ "lock-safety" ] "lock_bad" in
  Alcotest.(check int) "lock and unlock flagged" 2 (count "lock-safety" bad);
  check_clean "with_lock combinator clean"
    (run ~rules:[ "lock-safety" ] "lock_ok")

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_lock_order_cycle () =
  let bad = run ~rules:[ "lock-order" ] "lockorder_bad" in
  Alcotest.(check bool) "cross-module cycle found" true (count "lock-order" bad > 0);
  let msgs = String.concat " " (List.map (fun f -> f.Lint.f_msg) bad) in
  let mentions s =
    Alcotest.(check bool) ("cycle names " ^ s) true (contains ~sub:s msgs)
  in
  mentions "a.ma";
  mentions "b.mb"

let test_lock_order_self () =
  let bad = run ~rules:[ "lock-order" ] "lockorder_self" in
  Alcotest.(check bool) "self-nesting flagged (non-reentrant)" true
    (count "lock-order" bad > 0)

let test_lock_order_consistent () =
  check_clean "consistent order clean" (run ~rules:[ "lock-order" ] "lockorder_ok")

let test_clock () =
  let bad = run ~rules:[ "clock-discipline" ] "clock_bad" in
  Alcotest.(check int)
    "gettimeofday, jitter, trace-id Randoms and buffer deadline flagged" 5
    (count "clock-discipline" bad);
  check_clean "clock_ok clean (incl. trace ids and buffer deadline)"
    (run ~rules:[ "clock-discipline" ] "clock_ok")

let test_stdout () =
  let bad = run ~rules:[ "no-stdout" ] "stdout_bad" in
  Alcotest.(check int) "print_endline and printf flagged" 2
    (count "no-stdout" bad);
  check_clean "Logs in lib + print in bin clean"
    (run ~rules:[ "no-stdout" ] "stdout_ok")

let test_domain_discipline () =
  let bad = run ~rules:[ "domain-discipline" ] "domain_bad" in
  Alcotest.(check int) "spawn and join flagged" 2
    (count "domain-discipline" bad);
  check_clean "lib/exec exemption clean"
    (run ~rules:[ "domain-discipline" ] "domain_ok")

let test_net_discipline () =
  let bad = run ~rules:[ "net-discipline" ] "net_bad" in
  Alcotest.(check int) "socket and connect flagged" 2
    (count "net-discipline" bad);
  check_clean "lib/net exemption + non-socket Unix clean"
    (run ~rules:[ "net-discipline" ] "net_ok")

let test_mli_coverage () =
  let bad = run ~rules:[ "mli-coverage" ] "mli_bad" in
  Alcotest.(check int) "missing interface flagged" 1 (count "mli-coverage" bad);
  check_clean "mli present clean" (run ~rules:[ "mli-coverage" ] "mli_ok")

let test_allow_scoped () =
  (* The vfs allow kills exactly the vfs finding; an allow naming the
     wrong rule does not hide the clock finding beside it. *)
  let fs = run ~rules:[ "vfs-discipline"; "clock-discipline" ] "allow" in
  Alcotest.(check (list string))
    "only the clock finding survives" [ "clock-discipline" ] (rules_of fs)

let test_allow_malformed () =
  let fs = run ~rules:[ "vfs-discipline" ] "allow_bad" in
  Alcotest.(check int) "unknown rule + missing justification reported" 2
    (count "lint-allow" fs);
  Alcotest.(check int) "invalid allows suppress nothing" 2
    (count "vfs-discipline" fs)

let test_allow_floating () =
  check_clean "[@@@lint.allow] covers the whole file"
    (run ~rules:[ "no-stdout" ] "allow_file")

let test_formats () =
  let f =
    { Lint.f_file = "lib/x/y.ml"; f_line = 12; f_col = 4;
      f_rule = "no-stdout"; f_msg = "boom" }
  in
  Alcotest.(check string) "plain" "lib/x/y.ml:12:4: [no-stdout] boom"
    (Lint.to_plain f);
  Alcotest.(check string) "github"
    "::error file=lib/x/y.ml,line=12,col=5::no-stdout: boom" (Lint.to_github f)

(* ---- typed rules --------------------------------------------------- *)
(* The cmt-based rules need typed trees: each fixture is compiled in
   place with ocamlc -bin-annot (dependency order matters), then the
   linter loads the cmts it finds under the fixture root. *)

let compiled : (string, unit) Hashtbl.t = Hashtbl.create 8

let compile_typed case files =
  if not (Hashtbl.mem compiled case) then begin
    let dir = Filename.concat (Filename.concat "lint_fixtures" case) "lib" in
    let cmd =
      Printf.sprintf "cd %s && ocamlc -bin-annot -c %s 2>/dev/null"
        (Filename.quote dir)
        (String.concat " " files)
    in
    Alcotest.(check int) ("compile fixture " ^ case) 0 (Sys.command cmd);
    Hashtbl.add compiled case ()
  end

let run_typed ?rules case files =
  compile_typed case files;
  Lint.run ?rules ~typed:true
    ~roots:[ Lint.root (Filename.concat "lint_fixtures" case) ]
    ()

let msgs_contain ~sub findings =
  List.exists (fun f -> contains ~sub f.Lint.f_msg) findings

let test_domain_race () =
  let bad =
    run_typed ~rules:[ "domain-race" ] "tdrace_bad" [ "pool.ml"; "store.ml" ]
  in
  Alcotest.(check int) "unlocked crossing write flagged" 1
    (count "domain-race" bad);
  Alcotest.(check int) "nothing else" 1 (List.length bad);
  Alcotest.(check bool) "names the cell" true
    (msgs_contain ~sub:"store.t.count" bad);
  check_clean "same lock on both sides clean"
    (run_typed ~rules:[ "domain-race" ] "tdrace_ok"
       [ "mutexes.ml"; "pool.ml"; "store.ml" ]);
  check_clean "justified [@lint.allow] suppresses"
    (run_typed ~rules:[ "domain-race" ] "tdrace_allow" [ "pool.ml"; "store.ml" ])

let test_atomic_discipline () =
  let bad =
    run_typed
      ~rules:[ "atomic-discipline" ]
      "tatomic_bad" [ "pool.ml"; "counter.ml" ]
  in
  Alcotest.(check int) "plain ref counter across domains flagged" 1
    (count "atomic-discipline" bad);
  Alcotest.(check bool) "suggests Atomic.t" true
    (msgs_contain ~sub:"Atomic.t" bad);
  check_clean "Atomic.t version clean"
    (run_typed
       ~rules:[ "atomic-discipline" ]
       "tatomic_ok" [ "pool.ml"; "counter.ml" ])

let test_blocking_under_lock () =
  let bad =
    run_typed
      ~rules:[ "blocking-under-lock" ]
      "tblock_bad"
      [ "mutexes.ml"; "vfs.ml"; "table.ml"; "block_cache.ml" ]
  in
  Alcotest.(check int) "fsync under writer_lock and the cache lock flagged" 2
    (count "blocking-under-lock" bad);
  Alcotest.(check bool) "names op and hot lock" true
    (msgs_contain ~sub:"Vfs.fsync" bad
    && msgs_contain ~sub:"table.t.writer_lock" bad);
  Alcotest.(check bool) "the cache mutex is a hot lock" true
    (msgs_contain ~sub:"block_cache.t.mutex" bad);
  check_clean "fsync hoisted out of the region clean"
    (run_typed
       ~rules:[ "blocking-under-lock" ]
       "tblock_ok"
       [ "mutexes.ml"; "vfs.ml"; "table.ml" ])

(* Regression: the shape of the real finding the typed pass caught in
   lib/obs/trace.ml — an unlocked setter beside a mutex-guarded reader
   of the same field (mixed lock discipline). *)
let test_typed_regression_ring () =
  let bad =
    run_typed ~rules:[ "domain-race" ] "tregress_ring"
      [ "mutexes.ml"; "ring.ml" ]
  in
  Alcotest.(check int) "mixed discipline on the threshold field" 1
    (count "domain-race" bad);
  Alcotest.(check bool) "names the cell and the discipline" true
    (msgs_contain ~sub:"ring.t.slow_us" bad
    && msgs_contain ~sub:"mixed lock discipline" bad)

(* CI diffs findings textually, so the typed pass must be a pure
   function of the cmts: two runs over the same tree are byte-equal. *)
let test_typed_deterministic () =
  let go () =
    List.map Lint.to_plain (run_typed "tdrace_bad" [ "pool.ml"; "store.ml" ])
  in
  Alcotest.(check (list string)) "two runs byte-identical" (go ()) (go ())

let test_rule_catalogue () =
  Alcotest.(check int) "eleven rules" 11 (List.length Lint.rule_names);
  List.iter
    (fun r ->
      Alcotest.(check bool) ("doc for " ^ r) true
        (String.length (Lint.rule_doc r) > 10))
    Lint.rule_names

let suite =
  [
    Alcotest.test_case "vfs-discipline" `Quick test_vfs;
    Alcotest.test_case "lock-safety" `Quick test_lock_safety;
    Alcotest.test_case "lock-order cycle" `Quick test_lock_order_cycle;
    Alcotest.test_case "lock-order self" `Quick test_lock_order_self;
    Alcotest.test_case "lock-order consistent" `Quick test_lock_order_consistent;
    Alcotest.test_case "clock-discipline" `Quick test_clock;
    Alcotest.test_case "no-stdout" `Quick test_stdout;
    Alcotest.test_case "domain-discipline" `Quick test_domain_discipline;
    Alcotest.test_case "mli-coverage" `Quick test_mli_coverage;
    Alcotest.test_case "net-discipline" `Quick test_net_discipline;
    Alcotest.test_case "domain-race (typed)" `Quick test_domain_race;
    Alcotest.test_case "atomic-discipline (typed)" `Quick test_atomic_discipline;
    Alcotest.test_case "blocking-under-lock (typed)" `Quick
      test_blocking_under_lock;
    Alcotest.test_case "typed regression: trace ring" `Quick
      test_typed_regression_ring;
    Alcotest.test_case "typed pass deterministic" `Quick
      test_typed_deterministic;
    Alcotest.test_case "allow is rule-scoped" `Quick test_allow_scoped;
    Alcotest.test_case "allow malformed" `Quick test_allow_malformed;
    Alcotest.test_case "allow floating" `Quick test_allow_floating;
    Alcotest.test_case "output formats" `Quick test_formats;
    Alcotest.test_case "rule catalogue" `Quick test_rule_catalogue;
  ]
