open Littletable
open Lt_sql

let setup () =
  let db, clock, _ = Support.fresh_db () in
  let b = Executor.local_backend db in
  (b, db, clock)

let exec b sql = Executor.execute b sql

type row_set = { columns : string list; rows : Value.t array list }

let rows b sql =
  match exec b sql with
  | Executor.Rows { columns; rows } -> { columns; rows }
  | _ -> Alcotest.failf "expected rows from %s" sql

(* No TTL: the test rows use small timestamps near the epoch, which a
   TTL would filter out relative to the 2024 test clock. *)
let create_usage ?(ttl = "") b =
  ignore
    (exec b
       (Printf.sprintf
          "CREATE TABLE usage (network INT64, device INT64, ts TIMESTAMP, \
           bytes INT64 DEFAULT 0, rate DOUBLE, \
           PRIMARY KEY (network, device, ts))%s"
          ttl))

(* ---- Lexer ------------------------------------------------------------ *)

let test_lexer_basics () =
  let toks = Lexer.tokenize "SELECT a, SUM(b) FROM t WHERE x >= 10 -- c\n LIMIT 5;" in
  Alcotest.(check int) "token count" 17 (List.length toks);
  (match toks with
  | Lexer.T_ident "select" :: Lexer.T_ident "a" :: Lexer.T_comma :: _ -> ()
  | _ -> Alcotest.fail "unexpected prefix");
  (* Strings with escaped quotes; blobs. *)
  (match Lexer.tokenize "'it''s' x'6869'" with
  | [ Lexer.T_string "it's"; Lexer.T_blob "hi"; Lexer.T_eof ] -> ()
  | _ -> Alcotest.fail "string/blob lexing");
  (* Negative and float literals. *)
  (match Lexer.tokenize "-5 2.5 1e3" with
  | [ Lexer.T_int (-5L); Lexer.T_float 2.5; Lexer.T_float 1000.0; Lexer.T_eof ] -> ()
  | _ -> Alcotest.fail "numeric lexing");
  match Lexer.tokenize "a @ b" with
  | (_ : Lexer.token list) -> Alcotest.fail "bad char accepted"
  | exception Lexer.Syntax_error _ -> ()

(* ---- Parser ------------------------------------------------------------ *)

let test_parser_select () =
  match Parser.parse
          "SELECT device, SUM(bytes) AS total FROM usage \
           WHERE network = 7 AND ts >= 100 AND ts < 200 \
           GROUP BY device LIMIT 10"
  with
  | Ast.Select s ->
      Alcotest.(check string) "table" "usage" s.Ast.table;
      Alcotest.(check int) "projections" 2 (List.length s.Ast.projections);
      Alcotest.(check int) "conds" 3 (List.length s.Ast.where);
      Alcotest.(check (list string)) "group" [ "device" ] s.Ast.group_by;
      Alcotest.(check bool) "limit" true (s.Ast.limit = Some 10);
      (match s.Ast.projections with
      | [ (Ast.Col "device", None); (Ast.Agg (Ast.Sum, Some "bytes"), Some "total") ] -> ()
      | _ -> Alcotest.fail "projection shapes")
  | _ -> Alcotest.fail "not a select"

let test_parser_other_statements () =
  (match Parser.parse "SHOW TABLES" with Ast.Show_tables -> () | _ -> Alcotest.fail "show");
  (match Parser.parse "DESCRIBE usage;" with
  | Ast.Describe "usage" -> ()
  | _ -> Alcotest.fail "describe");
  (match Parser.parse "DROP TABLE IF EXISTS t" with
  | Ast.Drop { drop_table = "t"; if_exists = true } -> ()
  | _ -> Alcotest.fail "drop");
  (match Parser.parse "SELECT * FROM t ORDER BY KEY DESC" with
  | Ast.Select { star = true; order = Some Ast.Order_desc; _ } -> ()
  | _ -> Alcotest.fail "order desc");
  match Parser.parse "INSERT INTO t (a, ts) VALUES (1, NOW), (2, 5)" with
  | Ast.Insert { values = [ [ Ast.L_int 1L; Ast.L_now ]; [ Ast.L_int 2L; Ast.L_int 5L ] ]; _ } -> ()
  | _ -> Alcotest.fail "insert"

let test_parser_errors () =
  let bad sql =
    match Parser.parse sql with
    | (_ : Ast.stmt) -> Alcotest.failf "accepted: %s" sql
    | exception Lexer.Syntax_error _ -> ()
  in
  bad "SELECT FROM t";
  bad "SELECT * FROM";
  bad "CREATE TABLE t (a INT64)";
  (* no primary key *)
  bad "CREATE TABLE t (a WIBBLE, PRIMARY KEY (a))";
  bad "INSERT INTO t VALUES";
  bad "SELECT * FROM t WHERE a ~ 3";
  bad "SELECT * FROM t garbage"

(* A negative LIMIT lexes as a literal, and one that does not fit an
   int would wrap to one; either would drop the row cap. *)
let test_parser_negative_limit () =
  List.iter
    (fun sql ->
      match Parser.parse sql with
      | (_ : Ast.stmt) -> Alcotest.failf "accepted: %s" sql
      | exception Lexer.Syntax_error _ -> ())
    [ "SELECT * FROM t LIMIT -1"; "SELECT * FROM t LIMIT 9223372036854775807" ];
  match Parser.parse "SELECT * FROM t LIMIT 0" with
  | Ast.Select { limit = Some 0; _ } -> ()
  | _ -> Alcotest.fail "LIMIT 0"

(* ---- Planner ------------------------------------------------------------ *)

let test_planner_bounding_box () =
  let schema = Support.usage_schema () in
  let parse_select sql =
    match Parser.parse sql with Ast.Select s -> s | _ -> assert false
  in
  let plan sql = Planner.plan_select schema ~now:999L (parse_select sql) in
  (* Leading-equality prefix + ts range extracted; trailing filter residual. *)
  let p =
    plan
      "SELECT * FROM usage WHERE network = 1 AND device = 2 AND ts >= 10 \
       AND ts <= 20 AND bytes > 100"
  in
  Alcotest.(check bool) "prefix" true
    (p.Planner.query.Query.key_low = Query.Incl [ Value.Int64 1L; Value.Int64 2L ]);
  Alcotest.(check bool) "ts bounds" true
    (p.Planner.query.Query.ts_min = Some 10L && p.Planner.query.Query.ts_max = Some 20L);
  Alcotest.(check int) "one residual" 1 (List.length p.Planner.residuals);
  (* A gap in the equalities stops the prefix. *)
  let p = plan "SELECT * FROM usage WHERE device = 2" in
  Alcotest.(check bool) "no prefix" true
    (p.Planner.query.Query.key_low = Query.Unbounded);
  Alcotest.(check int) "residual" 1 (List.length p.Planner.residuals);
  (* Strict ts comparisons become inclusive bounds. *)
  let p = plan "SELECT * FROM usage WHERE ts > 10 AND ts < 20" in
  Alcotest.(check bool) "strict ts" true
    (p.Planner.query.Query.ts_min = Some 11L && p.Planner.query.Query.ts_max = Some 19L);
  (* NOW coerces in ts conditions. *)
  let p = plan "SELECT * FROM usage WHERE ts <= NOW" in
  Alcotest.(check bool) "now" true (p.Planner.query.Query.ts_max = Some 999L);
  (* LIMIT pushes down only without residuals. *)
  let p = plan "SELECT * FROM usage LIMIT 5" in
  Alcotest.(check bool) "pushed" true (p.Planner.query.Query.limit = Some 5);
  let p = plan "SELECT * FROM usage WHERE bytes = 1 LIMIT 5" in
  Alcotest.(check bool) "not pushed" true
    (p.Planner.query.Query.limit = None && p.Planner.post_limit = Some 5)

let test_planner_errors () =
  let schema = Support.usage_schema () in
  let bad sql =
    match Parser.parse sql with
    | Ast.Select s -> (
        match Planner.plan_select schema ~now:0L s with
        | (_ : Planner.plan) -> Alcotest.failf "planned: %s" sql
        | exception Planner.Plan_error _ -> ())
    | _ -> assert false
  in
  bad "SELECT nope FROM usage";
  bad "SELECT * FROM usage WHERE nope = 1";
  bad "SELECT * FROM usage WHERE network = 'string'";
  bad "SELECT device, SUM(bytes) FROM usage";
  (* device not grouped *)
  bad "SELECT SUM(rate) FROM usage ORDER BY KEY DESC";
  bad "SELECT * FROM usage GROUP BY device";
  bad "SELECT SUM(device2) FROM usage"

(* ---- End-to-end execution ---------------------------------------------- *)

let test_e2e_create_insert_select () =
  let b, _, _ = setup () in
  create_usage b;
  (match exec b "SHOW TABLES" with
  | Executor.Rows { rows = [ [| Value.String "usage" |] ]; _ } -> ()
  | _ -> Alcotest.fail "show tables");
  (match
     exec b
       "INSERT INTO usage (network, device, ts, bytes, rate) VALUES \
        (1, 1, 100, 500, 1.5), (1, 2, 110, 700, 2.5), (2, 1, 120, 900, 3.5)"
   with
  | Executor.Affected 3 -> ()
  | _ -> Alcotest.fail "insert count");
  let r = rows b "SELECT * FROM usage WHERE network = 1" in
  Alcotest.(check int) "two rows" 2 (List.length r.rows);
  Alcotest.(check (list string)) "columns"
    [ "network"; "device"; "ts"; "bytes"; "rate" ] r.columns;
  (* Projection subset + alias. *)
  let r = rows b "SELECT device AS d, bytes FROM usage WHERE network = 1" in
  Alcotest.(check (list string)) "aliased" [ "d"; "bytes" ] r.columns;
  (match r.rows with
  | [ [| Value.Int64 1L; Value.Int64 500L |]; [| Value.Int64 2L; Value.Int64 700L |] ] -> ()
  | _ -> Alcotest.fail "projected values")

let test_e2e_aggregates () =
  let b, _, _ = setup () in
  create_usage b;
  ignore
    (exec b
       "INSERT INTO usage (network, device, ts, bytes, rate) VALUES \
        (1, 1, 100, 10, 1.0), (1, 1, 101, 20, 2.0), (1, 2, 102, 30, 3.0), \
        (2, 1, 103, 40, 4.0)");
  (* Whole-table aggregates. *)
  let r = rows b "SELECT COUNT(*), SUM(bytes), AVG(rate), MIN(ts), MAX(ts) FROM usage" in
  (match r.rows with
  | [ [| Value.Int64 4L; Value.Int64 100L; Value.Double avg; Value.Timestamp 100L;
         Value.Timestamp 103L |] ] ->
      Alcotest.(check (float 1e-9)) "avg" 2.5 avg
  | _ -> Alcotest.fail "aggregate row");
  (* Grouped by device within a network — the Dashboard per-device graph. *)
  let r =
    rows b
      "SELECT device, SUM(bytes) FROM usage WHERE network = 1 GROUP BY device"
  in
  (match r.rows with
  | [ [| Value.Int64 1L; Value.Int64 30L |]; [| Value.Int64 2L; Value.Int64 30L |] ] -> ()
  | _ -> Alcotest.fail "grouped rows");
  (* Aggregate over an empty scan yields one zero row. *)
  let r = rows b "SELECT COUNT(*) FROM usage WHERE network = 99" in
  match r.rows with
  | [ [| Value.Int64 0L |] ] -> ()
  | _ -> Alcotest.fail "empty aggregate"

let test_e2e_defaults_and_now () =
  let b, _, clock = setup () in
  create_usage b;
  ignore (exec b "INSERT INTO usage (network, device, ts) VALUES (5, 5, NOW)");
  (* Omitted ts fills with now as well. *)
  ignore (exec b "INSERT INTO usage (network, device) VALUES (6, 6)");
  let now = Lt_util.Clock.now clock in
  let r = rows b "SELECT network, ts, bytes FROM usage" in
  (match r.rows with
  | [ [| Value.Int64 5L; Value.Timestamp t1; Value.Int64 0L |];
      [| Value.Int64 6L; Value.Timestamp t2; Value.Int64 0L |] ] ->
      Alcotest.(check int64) "now filled" now t1;
      Alcotest.(check int64) "omitted ts" now t2
  | _ -> Alcotest.fail "rows")

let test_e2e_order_and_limit () =
  let b, _, _ = setup () in
  create_usage b;
  ignore
    (exec b
       "INSERT INTO usage (network, device, ts) VALUES (1,1,1),(2,2,2),(3,3,3)");
  let r = rows b "SELECT network FROM usage ORDER BY KEY DESC LIMIT 2" in
  (match r.rows with
  | [ [| Value.Int64 3L |]; [| Value.Int64 2L |] ] -> ()
  | _ -> Alcotest.fail "desc limit");
  let r = rows b "SELECT network FROM usage WHERE ts != 2" in
  Alcotest.(check int) "ne residual" 2 (List.length r.rows)

let test_e2e_errors () =
  let b, _, _ = setup () in
  create_usage b;
  let expect_error sql =
    match exec b sql with
    | (_ : Executor.result) -> Alcotest.failf "accepted: %s" sql
    | exception (Executor.Exec_error _ | Planner.Plan_error _ | Lexer.Syntax_error _) -> ()
  in
  expect_error "SELECT * FROM missing";
  expect_error "INSERT INTO usage (network) VALUES (1, 2)";
  expect_error "INSERT INTO usage (nope, ts) VALUES (1, 2)";
  expect_error "CREATE TABLE usage (a INT64, ts TIMESTAMP, PRIMARY KEY (a, ts))";
  expect_error "DROP TABLE missing";
  (* Duplicate keys surface as errors. *)
  ignore (exec b "INSERT INTO usage (network, device, ts) VALUES (1, 1, 5)");
  expect_error "INSERT INTO usage (network, device, ts) VALUES (1, 1, 5)";
  (* IF EXISTS suppresses. *)
  match exec b "DROP TABLE IF EXISTS missing" with
  | Executor.Done _ -> ()
  | _ -> Alcotest.fail "if exists"

let test_e2e_describe_and_ttl () =
  let b, db, _ = setup () in
  create_usage ~ttl:" TTL 30 DAYS" b;
  let r = rows b "DESCRIBE usage" in
  Alcotest.(check int) "five columns" 5 (List.length r.rows);
  (* TTL parsed into the table. *)
  let t = Db.table db "usage" in
  Alcotest.(check bool) "ttl 30 days" true
    (Table.ttl t = Some (Int64.mul 30L Lt_util.Clock.day))

let test_pp_result () =
  let b, _, _ = setup () in
  create_usage b;
  ignore (exec b "INSERT INTO usage (network, device, ts) VALUES (1, 2, 3)");
  let out = Format.asprintf "%a" Executor.pp_result (exec b "SELECT network, device FROM usage") in
  Alcotest.(check bool) "has header" true
    (String.length out > 0 && String.sub out 0 7 = "network");
  let out2 = Format.asprintf "%a" Executor.pp_result (Executor.Affected 2) in
  Alcotest.(check string) "affected" "2 rows affected" out2

let suite =
  [
    ("lexer basics", `Quick, test_lexer_basics);
    ("parser: select", `Quick, test_parser_select);
    ("parser: other statements", `Quick, test_parser_other_statements);
    ("parser: errors", `Quick, test_parser_errors);
    ("parser: negative LIMIT refused", `Quick, test_parser_negative_limit);
    ("planner: bounding box extraction", `Quick, test_planner_bounding_box);
    ("planner: errors", `Quick, test_planner_errors);
    ("e2e: create/insert/select", `Quick, test_e2e_create_insert_select);
    ("e2e: aggregates and group by", `Quick, test_e2e_aggregates);
    ("e2e: defaults and NOW", `Quick, test_e2e_defaults_and_now);
    ("e2e: order and limit", `Quick, test_e2e_order_and_limit);
    ("e2e: errors", `Quick, test_e2e_errors);
    ("e2e: describe and ttl", `Quick, test_e2e_describe_and_ttl);
    ("pp_result", `Quick, test_pp_result);
  ]
