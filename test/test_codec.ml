open Littletable
open Lt_util

(* ---- Value ---------------------------------------------------------- *)

let test_value_types () =
  Alcotest.(check string) "name" "int32" (Value.type_name Value.T_int32);
  Alcotest.(check bool) "of_name" true
    (Value.type_of_name "timestamp" = Some Value.T_timestamp);
  Alcotest.(check bool) "of_name unknown" true (Value.type_of_name "nope" = None);
  Alcotest.(check bool) "matches" true (Value.matches Value.T_blob (Value.Blob "x"));
  Alcotest.(check bool) "mismatch" false
    (Value.matches Value.T_int32 (Value.Int64 1L));
  Alcotest.(check bool) "zero" true (Value.zero Value.T_string = Value.String "")

let test_value_widen () =
  Alcotest.(check bool) "i32 -> i64" true
    (Value.widen ~from:Value.T_int32 ~into:Value.T_int64 (Value.Int32 (-7l))
    = Some (Value.Int64 (-7L)));
  Alcotest.(check bool) "same type" true
    (Value.widen ~from:Value.T_string ~into:Value.T_string (Value.String "s")
    = Some (Value.String "s"));
  Alcotest.(check bool) "i64 -> i32 refused" true
    (Value.widen ~from:Value.T_int64 ~into:Value.T_int32 (Value.Int64 1L) = None)

let test_value_compare () =
  Alcotest.(check bool) "ints" true (Value.compare (Value.Int32 1l) (Value.Int32 2l) < 0);
  Alcotest.(check bool) "equal" true (Value.equal (Value.Double 1.5) (Value.Double 1.5));
  match Value.compare (Value.Int32 1l) (Value.String "x") with
  | (_ : int) -> Alcotest.fail "cross-type compare accepted"
  | exception Invalid_argument _ -> ()

let value_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun i -> Value.Int32 (Int32.of_int i)) int;
      map (fun i -> Value.Int64 (Int64.of_int i)) int;
      map (fun f -> Value.Double f) float;
      map (fun i -> Value.Timestamp (Int64.of_int (abs i))) int;
      map (fun s -> Value.String s) (string_size (int_bound 40));
      map (fun s -> Value.Blob s) (string_size (int_bound 40));
    ]

let prop_value_roundtrip =
  QCheck.Test.make ~name:"value encode/decode roundtrip" ~count:1000
    (QCheck.make value_gen) (fun v ->
      let b = Buffer.create 16 in
      Value.encode b v;
      let cur = Binio.cursor (Buffer.contents b) in
      let v' = Value.decode (Value.type_of v) cur in
      Binio.expect_end cur;
      (* NaN-safe comparison via the bit pattern. *)
      match (v, v') with
      | Value.Double a, Value.Double b -> Int64.bits_of_float a = Int64.bits_of_float b
      | _ -> Value.equal v v')

(* [Value.skip] must step exactly as far as [Value.decode] reads, on
   every type, on strings whose length varint takes two bytes (>= 128),
   and must raise [Corrupt] on input cut inside a value, as decode does.
   The sequence is encoded back to back, then cut at a random point. *)
let prop_value_skip =
  let long_value =
    QCheck.Gen.(
      oneof
        [
          map (fun s -> Value.String s) (string_size (int_range 120 300));
          map (fun s -> Value.Blob s) (string_size (int_range 120 300));
        ])
  in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 8) (frequency [ (3, value_gen); (1, long_value) ]))
        (frequency [ (1, return 1.0); (1, float_bound_inclusive 1.0) ]))
  in
  let print (vs, frac) =
    Printf.sprintf "cut at %.3f of [%s]" frac
      (String.concat "; " (List.map Value.to_string vs))
  in
  QCheck.Test.make ~name:"value skip advances as far as decode" ~count:1000
    (QCheck.make ~print gen) (fun (vs, frac) ->
      let b = Buffer.create 64 in
      List.iter (Value.encode b) vs;
      let full = Buffer.contents b in
      let cut = int_of_float (frac *. float (String.length full)) in
      let data = String.sub full 0 cut in
      (* Where one read of [ctype] at [pos] leaves the cursor; [None] when
         it raised [Corrupt]. *)
      let step read ctype pos =
        let cur = Binio.cursor ~pos data in
        match read ctype cur with
        | () -> Some cur.Binio.pos
        | exception Binio.Corrupt _ -> None
      in
      let rec walk pos = function
        | [] -> true
        | v :: rest -> (
            let ctype = Value.type_of v in
            let by_decode =
              step (fun c cur -> ignore (Value.decode c cur)) ctype pos
            in
            let by_skip = step Value.skip ctype pos in
            by_decode = by_skip
            &&
            match by_skip with
            | None -> pos + Value.encoded_size v > cut
            | Some p -> p = pos + Value.encoded_size v && walk p rest)
      in
      walk 0 vs)

(* ---- Schema --------------------------------------------------------- *)

let test_schema_validation () =
  let col name ctype default = { Schema.name; ctype; default } in
  let expect_invalid name f =
    match f () with
    | (_ : Schema.t) -> Alcotest.failf "%s: accepted" name
    | exception Schema.Invalid _ -> ()
  in
  expect_invalid "no columns" (fun () -> Schema.create ~columns:[] ~pkey:[]);
  expect_invalid "duplicate names" (fun () ->
      Schema.create
        ~columns:[ col "a" Value.T_int32 (Value.Int32 0l);
                   col "a" Value.T_int32 (Value.Int32 0l);
                   col "ts" Value.T_timestamp (Value.Timestamp 0L) ]
        ~pkey:[ "a"; "ts" ]);
  expect_invalid "default type mismatch" (fun () ->
      Schema.create
        ~columns:[ col "a" Value.T_int32 (Value.Int64 0L);
                   col "ts" Value.T_timestamp (Value.Timestamp 0L) ]
        ~pkey:[ "a"; "ts" ]);
  expect_invalid "empty pkey" (fun () ->
      Schema.create
        ~columns:[ col "ts" Value.T_timestamp (Value.Timestamp 0L) ]
        ~pkey:[]);
  expect_invalid "pkey not ending in ts" (fun () ->
      Schema.create
        ~columns:[ col "a" Value.T_int32 (Value.Int32 0l);
                   col "ts" Value.T_timestamp (Value.Timestamp 0L) ]
        ~pkey:[ "ts"; "a" ]);
  expect_invalid "ts wrong type" (fun () ->
      Schema.create
        ~columns:[ col "ts" Value.T_int64 (Value.Int64 0L) ]
        ~pkey:[ "ts" ]);
  expect_invalid "unknown key column" (fun () ->
      Schema.create
        ~columns:[ col "ts" Value.T_timestamp (Value.Timestamp 0L) ]
        ~pkey:[ "nope"; "ts" ])

let test_schema_accessors () =
  let s = Support.usage_schema () in
  Alcotest.(check int) "columns" 5 (Schema.column_count s);
  Alcotest.(check int) "ts index" 2 (Schema.ts_index s);
  Alcotest.(check bool) "find" true (Schema.find_column s "rate" = Some 4);
  Alcotest.(check bool) "find missing" true (Schema.find_column s "zz" = None);
  Alcotest.(check (list string)) "pkey names" [ "network"; "device"; "ts" ]
    (Schema.pkey_names s);
  Alcotest.(check bool) "is_pkey" true (Schema.is_pkey s 0);
  Alcotest.(check bool) "not pkey" false (Schema.is_pkey s 3);
  let row = Support.usage_row ~network:1L ~device:2L ~ts:42L ~bytes:0L ~rate:0.0 in
  Schema.validate_row s row;
  Alcotest.(check int64) "row_ts" 42L (Schema.row_ts s row)

let test_schema_evolution () =
  let s = Support.usage_schema () in
  let s2 =
    Schema.add_column s
      { Schema.name = "pkts"; ctype = Value.T_int32; default = Value.Int32 (-1l) }
  in
  Alcotest.(check int) "version bumped" 1 (Schema.version s2);
  Alcotest.(check int) "6 columns" 6 (Schema.column_count s2);
  let s3 = Schema.widen_column s2 "pkts" in
  Alcotest.(check int) "version 2" 2 (Schema.version s3);
  let old_row = Support.usage_row ~network:9L ~device:8L ~ts:7L ~bytes:6L ~rate:0.5 in
  let new_row = Schema.translate_row ~from:s ~into:s3 old_row in
  Alcotest.(check int) "translated arity" 6 (Array.length new_row);
  Alcotest.(check bool) "default filled (widened)" true
    (new_row.(5) = Value.Int64 (-1L));
  Alcotest.(check bool) "existing kept" true (new_row.(0) = Value.Int64 9L);
  (* Widening translates an int32 cell written under s2. *)
  let row2 = Array.append old_row [| Value.Int32 5l |] in
  let new_row2 = Schema.translate_row ~from:s2 ~into:s3 row2 in
  Alcotest.(check bool) "widened cell" true (new_row2.(5) = Value.Int64 5L);
  (match Schema.widen_column s "rate" with
  | (_ : Schema.t) -> Alcotest.fail "widened a double"
  | exception Schema.Invalid _ -> ());
  match Schema.add_column s { Schema.name = "rate"; ctype = Value.T_int32; default = Value.Int32 0l } with
  | (_ : Schema.t) -> Alcotest.fail "duplicate add accepted"
  | exception Schema.Invalid _ -> ()

(* A key column keeps its width: widening it would change the encoded
   key of every row, and tablets on disk are never rewritten. *)
let test_widen_key_refused () =
  let col name ctype default = { Schema.name; ctype; default } in
  let s =
    Schema.create
      ~columns:
        [ col "network" Value.T_int32 (Value.Int32 0l);
          col "ts" Value.T_timestamp (Value.Timestamp 0L);
          col "pkts" Value.T_int32 (Value.Int32 0l) ]
      ~pkey:[ "network"; "ts" ]
  in
  (match Schema.widen_column s "network" with
  | (_ : Schema.t) -> Alcotest.fail "widened a key column"
  | exception Schema.Invalid _ -> ());
  Alcotest.(check int) "a value column still widens" 1
    (Schema.version (Schema.widen_column s "pkts"))

let test_schema_serialization () =
  let s =
    Schema.widen_column
      (Schema.add_column (Support.event_schema ())
         { Schema.name = "flags"; ctype = Value.T_int32; default = Value.Int32 3l })
      "flags"
  in
  let b = Buffer.create 64 in
  Schema.encode b s;
  let s' = Schema.decode (Binio.cursor (Buffer.contents b)) in
  Alcotest.(check bool) "roundtrip" true (Schema.equal s s')

(* ---- Key codec ------------------------------------------------------ *)

let enc v =
  let b = Buffer.create 16 in
  Key_codec.encode_value b v;
  Buffer.contents b

let prop_key_order () =
  fun (a, b) ->
    let ea = enc a and eb = enc b in
    let c_val = Value.compare a b in
    let c_enc = String.compare ea eb in
    (c_val < 0) = (c_enc < 0) && (c_val = 0) = (c_enc = 0)

let prop_int64_order =
  QCheck.Test.make ~name:"key order: int64" ~count:2000
    QCheck.(pair (map Int64.of_int int) (map Int64.of_int int))
    (fun (a, b) -> prop_key_order () (Value.Int64 a, Value.Int64 b))

let prop_int32_order =
  QCheck.Test.make ~name:"key order: int32" ~count:2000
    QCheck.(pair int32 int32)
    (fun (a, b) -> prop_key_order () (Value.Int32 a, Value.Int32 b))

let prop_double_order =
  QCheck.Test.make ~name:"key order: double" ~count:2000
    QCheck.(pair float float)
    (fun (a, b) ->
      QCheck.assume (not (Float.is_nan a) && not (Float.is_nan b));
      prop_key_order () (Value.Double a, Value.Double b))

let prop_string_order =
  QCheck.Test.make ~name:"key order: string (with NULs)" ~count:2000
    QCheck.(pair (string_gen_of_size Gen.(int_bound 20) Gen.char)
              (string_gen_of_size Gen.(int_bound 20) Gen.char))
    (fun (a, b) -> prop_key_order () (Value.String a, Value.String b))

let prop_key_value_roundtrip =
  QCheck.Test.make ~name:"key codec roundtrip" ~count:1000
    (QCheck.make value_gen) (fun v ->
      QCheck.assume
        (match v with Value.Double f -> not (Float.is_nan f) | _ -> true);
      let cur = Binio.cursor (enc v) in
      let v' = Key_codec.decode_value (Value.type_of v) cur in
      Binio.expect_end cur;
      Value.equal v v')

let test_double_edge_order () =
  let vals =
    [ Float.neg_infinity; -1e308; -1.0; -1e-300; -0.0; 0.0; 1e-300; 1.0; 1e308;
      Float.infinity ]
  in
  let encs = List.map (fun f -> enc (Value.Double f)) vals in
  let rec check = function
    | a :: (b :: _ as rest) ->
        if String.compare a b > 0 then Alcotest.fail "double order violated";
        check rest
    | _ -> ()
  in
  check encs;
  (* -0.0 sorts strictly before 0.0, matching Float.compare. *)
  Alcotest.(check bool) "-0 < 0" true
    (String.compare (enc (Value.Double (-0.0))) (enc (Value.Double 0.0)) < 0)

let test_full_key_and_prefix () =
  let s = Support.usage_schema () in
  let row = Support.usage_row ~network:5L ~device:77L ~ts:123456L ~bytes:1L ~rate:2.0 in
  let key = Key_codec.encode_key s row in
  Alcotest.(check int) "fixed width" 24 (String.length key);
  Alcotest.(check int64) "ts_of_key" 123456L (Key_codec.ts_of_key key);
  let p1 = Key_codec.encode_prefix s [ Value.Int64 5L ] in
  let p2 = Key_codec.encode_prefix s [ Value.Int64 5L; Value.Int64 77L ] in
  Alcotest.(check bool) "p1 prefix of key" true
    (String.length p1 < String.length key && String.sub key 0 (String.length p1) = p1);
  Alcotest.(check bool) "p2 prefix of key" true
    (String.sub key 0 (String.length p2) = p2);
  let decoded = Key_codec.decode_key s key in
  Alcotest.(check bool) "decode key" true
    (decoded = [| Value.Int64 5L; Value.Int64 77L; Value.Timestamp 123456L |]);
  let full, prefixes = Key_codec.encode_key_with_prefixes s row in
  Alcotest.(check string) "with_prefixes full" key full;
  Alcotest.(check bool) "proper prefixes" true (prefixes = [ p1; p2 ]);
  (* Type errors are rejected. *)
  match Key_codec.encode_prefix s [ Value.String "oops" ] with
  | (_ : string) -> Alcotest.fail "bad prefix type accepted"
  | exception Schema.Invalid _ -> ()

let test_string_keys_prefix_preserving () =
  let s = Support.event_schema () in
  let row ts net dev =
    [| Value.String net; Value.String dev; Value.Timestamp ts; Value.Int64 0L;
       Value.Blob "" |]
  in
  let k1 = Key_codec.encode_key s (row 1L "net" "dev") in
  let p = Key_codec.encode_prefix s [ Value.String "net" ] in
  Alcotest.(check bool) "prefix preserved" true
    (String.sub k1 0 (String.length p) = p);
  (* "net" as a prefix must NOT match network "netX". *)
  let k2 = Key_codec.encode_key s (row 1L "netX" "dev") in
  Alcotest.(check bool) "no false prefix" false
    (String.length k2 >= String.length p && String.sub k2 0 (String.length p) = p);
  (* Strings containing NUL and 0x01 roundtrip through full keys. *)
  let tricky = "a\x00b\x01c" in
  let k3 = Key_codec.encode_key s (row 2L tricky "d") in
  let dec = Key_codec.decode_key s k3 in
  Alcotest.(check bool) "tricky roundtrip" true (dec.(0) = Value.String tricky)

let test_prefix_succ () =
  Alcotest.(check bool) "simple" true (Key_codec.prefix_succ "abc" = Some "abd");
  Alcotest.(check bool) "carry" true (Key_codec.prefix_succ "a\xff\xff" = Some "b");
  Alcotest.(check bool) "all ff" true (Key_codec.prefix_succ "\xff\xff" = None);
  Alcotest.(check bool) "empty" true (Key_codec.prefix_succ "" = None)

let prop_prefix_succ_bounds =
  QCheck.Test.make ~name:"prefix_succ bounds the prefix range" ~count:1000
    QCheck.(pair (string_gen_of_size Gen.(int_bound 8) Gen.char)
              (string_gen_of_size Gen.(int_bound 8) Gen.char))
    (fun (p, tail) ->
      let full = p ^ tail in
      match Key_codec.prefix_succ p with
      | None -> true
      | Some succ ->
          String.compare full succ < 0 && String.compare p succ < 0)

(* ---- Row codec ------------------------------------------------------ *)

let test_row_roundtrip () =
  let s = Support.usage_schema () in
  let row = Support.usage_row ~network:3L ~device:4L ~ts:99L ~bytes:1234L ~rate:0.25 in
  let key = Key_codec.encode_key s row in
  let value = Row_codec.encode_value s row in
  let row' = Row_codec.decode s ~key ~value in
  Alcotest.(check bool) "roundtrip" true (row = row');
  Alcotest.(check int) "stored size" (String.length key + String.length value)
    (Row_codec.stored_size s row)

let test_row_translated_decode () =
  let s = Support.usage_schema () in
  let s2 =
    Schema.add_column s
      { Schema.name = "errors"; ctype = Value.T_int32; default = Value.Int32 9l }
  in
  let row = Support.usage_row ~network:3L ~device:4L ~ts:99L ~bytes:1234L ~rate:0.25 in
  let key = Key_codec.encode_key s row in
  let value = Row_codec.encode_value s row in
  let row' = Row_codec.decode_translated ~from:s ~into:s2 ~key ~value in
  Alcotest.(check int) "arity" 6 (Array.length row');
  Alcotest.(check bool) "default" true (row'.(5) = Value.Int32 9l)

(* The boundary scan reads, off the full key bytes, exactly the prefix
   lengths [encode_key_with_prefixes] produces — over every key column
   type, with strings that need escaping. *)
let prop_prefix_ends =
  let col name ctype default = { Schema.name; ctype; default } in
  let s =
    Schema.create
      ~columns:
        [
          col "s" Value.T_string (Value.String "");
          col "i" Value.T_int32 (Value.Int32 0l);
          col "d" Value.T_double (Value.Double 0.0);
          col "b" Value.T_blob (Value.Blob "");
          col "n" Value.T_int64 (Value.Int64 0L);
          col "ts" Value.T_timestamp (Value.Timestamp 0L);
          col "v" Value.T_int64 (Value.Int64 0L);
        ]
      ~pkey:[ "s"; "i"; "d"; "b"; "n"; "ts" ]
  in
  let str = QCheck.Gen.(string_size ~gen:(oneofl [ '\x00'; '\x01'; '\x02'; 'z' ]) (int_bound 6)) in
  let gen =
    QCheck.Gen.(
      map
        (fun ((a, i), (d, (b, (n, ts)))) ->
          [| Value.String a; Value.Int32 (Int32.of_int i); Value.Double d;
             Value.Blob b; Value.Int64 (Int64.of_int n);
             Value.Timestamp (Int64.of_int ts); Value.Int64 0L |])
        (pair (pair str int) (pair float (pair str (pair int int)))))
  in
  QCheck.Test.make ~name:"key codec: prefix_ends = encode_key_with_prefixes"
    ~count:300
    (QCheck.make ~print:(fun row -> String.concat ", " (Array.to_list (Array.map Value.to_string row))) gen)
    (fun row ->
      let key, prefixes = Key_codec.encode_key_with_prefixes s row in
      let ends = Array.make (List.length prefixes) 0 in
      Key_codec.prefix_ends s key ends;
      Array.to_list ends = List.map String.length prefixes
      && List.for_all2
           (fun e p -> String.sub key 0 e = p)
           (Array.to_list ends) prefixes)

let suite =
  [
    ("value types", `Quick, test_value_types);
    ("value widen", `Quick, test_value_widen);
    ("widening a key column refused", `Quick, test_widen_key_refused);
    ("value compare", `Quick, test_value_compare);
    ("schema validation", `Quick, test_schema_validation);
    ("schema accessors", `Quick, test_schema_accessors);
    ("schema evolution", `Quick, test_schema_evolution);
    ("schema serialization", `Quick, test_schema_serialization);
    ("double edge ordering", `Quick, test_double_edge_order);
    ("full key and prefixes", `Quick, test_full_key_and_prefix);
    ("string keys prefix-preserving", `Quick, test_string_keys_prefix_preserving);
    ("prefix_succ", `Quick, test_prefix_succ);
    ("row codec roundtrip", `Quick, test_row_roundtrip);
    ("row codec translated decode", `Quick, test_row_translated_decode);
    Support.qcheck prop_value_roundtrip;
    Support.qcheck prop_value_skip;
    Support.qcheck prop_int64_order;
    Support.qcheck prop_int32_order;
    Support.qcheck prop_double_order;
    Support.qcheck prop_string_order;
    Support.qcheck prop_key_value_roundtrip;
    Support.qcheck prop_prefix_succ_bounds;
    Support.qcheck prop_prefix_ends;
  ]
