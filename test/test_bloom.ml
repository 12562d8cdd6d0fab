open Lt_bloom

let test_no_false_negatives () =
  let b = Bloom.create ~expected_keys:1000 () in
  let keys = List.init 1000 (fun i -> Printf.sprintf "key-%d" i) in
  List.iter (Bloom.add b) keys;
  List.iter
    (fun k ->
      if not (Bloom.mem b k) then Alcotest.failf "false negative on %s" k)
    keys

let test_false_positive_rate () =
  (* 10 bits/key gives ~1% FPR; assert under 3% with margin. *)
  let n = 5000 in
  let b = Bloom.create ~bits_per_key:10 ~expected_keys:n () in
  for i = 0 to n - 1 do
    Bloom.add b (Printf.sprintf "member-%d" i)
  done;
  let fp = ref 0 in
  let probes = 10_000 in
  for i = 0 to probes - 1 do
    if Bloom.mem b (Printf.sprintf "absent-%d" i) then incr fp
  done;
  let rate = float_of_int !fp /. float_of_int probes in
  if rate > 0.03 then Alcotest.failf "false positive rate %.4f too high" rate

let test_empty_filter () =
  let b = Bloom.create ~expected_keys:10 () in
  Alcotest.(check bool) "empty has nothing" false (Bloom.mem b "anything");
  Bloom.add b "";
  Alcotest.(check bool) "empty string key" true (Bloom.mem b "")

let test_serialization () =
  let b = Bloom.create ~expected_keys:100 () in
  List.iter (Bloom.add b) [ "a"; "bb"; "ccc"; "\x00\x01\xff" ];
  let buf = Buffer.create 64 in
  Bloom.encode buf b;
  let b' = Bloom.decode (Lt_util.Binio.cursor (Buffer.contents buf)) in
  Alcotest.(check int) "bits preserved" (Bloom.bit_count b) (Bloom.bit_count b');
  Alcotest.(check int) "k preserved" (Bloom.hash_count b) (Bloom.hash_count b');
  List.iter
    (fun k -> Alcotest.(check bool) k true (Bloom.mem b' k))
    [ "a"; "bb"; "ccc"; "\x00\x01\xff" ]

let test_sizing () =
  let b = Bloom.create ~bits_per_key:10 ~expected_keys:1000 () in
  Alcotest.(check bool) "at least 10 bits/key" true (Bloom.bit_count b >= 10_000);
  let tiny = Bloom.create ~expected_keys:0 () in
  Alcotest.(check bool) "minimum size" true (Bloom.bit_count tiny >= 64)

let prop_membership =
  QCheck.Test.make ~name:"bloom: added keys always member" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (string_gen_of_size Gen.(int_bound 30) Gen.char))
    (fun keys ->
      let b = Bloom.create ~expected_keys:(List.length keys) () in
      List.iter (Bloom.add b) keys;
      List.for_all (Bloom.mem b) keys)

(* One-pass insertion of a key with its boundary prefixes sets exactly
   the bits [add] sets for the key and for each prefix: compared through
   the serialized filters. Keys include 0x00/0x01 bytes and the ends are
   any strictly ascending positions inside the key. *)
let prop_add_with_prefixes =
  let gen_entry =
    let open QCheck.Gen in
    string_size ~gen:(oneofl [ '\x00'; '\x01'; '\x02'; 'a'; '\xff' ]) (int_range 1 40)
    >>= fun key ->
    let n = String.length key in
    list_size (int_bound 6) (int_range 1 (max 1 (n - 1))) >|= fun ends ->
    let ends = List.sort_uniq Int.compare (List.filter (fun e -> e < n) ends) in
    (key, Array.of_list ends)
  in
  let print (key, ends) =
    Printf.sprintf "%S @ [%s]" key
      (String.concat ";" (Array.to_list (Array.map string_of_int ends)))
  in
  QCheck.Test.make ~name:"bloom: add_with_prefixes = add of key and prefixes"
    ~count:300
    QCheck.(make ~print:(QCheck.Print.list print) Gen.(list_size (int_range 1 20) gen_entry))
    (fun entries ->
      let fresh () = Bloom.create ~bits_per_key:10 ~expected_keys:(4 * List.length entries) () in
      let one_pass = fresh () and reference = fresh () in
      List.iter
        (fun (key, ends) ->
          let seen = Array.make (2 * Array.length ends) (-1) in
          Bloom.add_with_prefixes one_pass ~seen key ends;
          Bloom.add reference key;
          Array.iter (fun e -> Bloom.add reference (String.sub key 0 e)) ends)
        entries;
      let bytes b =
        let buf = Buffer.create 64 in
        Bloom.encode buf b;
        Buffer.contents buf
      in
      bytes one_pass = bytes reference)

(* The tablet writer's dedup: sorted keys whose leading columns repeat,
   added through one [seen] state, set the bits [add] sets for each key
   and its prefixes. *)
let prop_add_with_prefixes_seen =
  let col choices = QCheck.Gen.(map (fun i -> Printf.sprintf "%08d" i) (int_bound choices)) in
  QCheck.Test.make ~name:"bloom: add_with_prefixes with a shared seen = add"
    ~count:200
    QCheck.(
      make ~print:(QCheck.Print.list String.escaped)
        Gen.(
          list_size (int_range 1 60)
            (map3 (fun a b c -> a ^ b ^ c) (col 2) (col 4) (col 1000))))
    (fun keys ->
      let keys = List.sort_uniq String.compare keys in
      let ends = [| 8; 16 |] in
      let fresh () = Bloom.create ~bits_per_key:10 ~expected_keys:(3 * List.length keys) () in
      let deduped = fresh () and plain = fresh () in
      let seen = Array.make 4 (-1) in
      List.iter
        (fun key ->
          Bloom.add_with_prefixes deduped ~seen key ends;
          Bloom.add plain key;
          Array.iter (fun e -> Bloom.add plain (String.sub key 0 e)) ends)
        keys;
      let bytes b =
        let buf = Buffer.create 64 in
        Bloom.encode buf b;
        Buffer.contents buf
      in
      bytes deduped = bytes plain)

let suite =
  [
    ("no false negatives", `Quick, test_no_false_negatives);
    ("false positive rate ~1%", `Quick, test_false_positive_rate);
    ("empty filter", `Quick, test_empty_filter);
    ("serialization roundtrip", `Quick, test_serialization);
    ("sizing", `Quick, test_sizing);
    Support.qcheck prop_membership;
    Support.qcheck prop_add_with_prefixes;
    Support.qcheck prop_add_with_prefixes_seen;
  ]
