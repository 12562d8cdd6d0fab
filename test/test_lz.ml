open Lt_lz

let roundtrip s =
  let c = Lz.compress s in
  Lz.decompress ~raw_len:(String.length s) c

let check_roundtrip name s =
  Alcotest.(check string) name s (roundtrip s)

let test_basic () =
  check_roundtrip "empty" "";
  check_roundtrip "one byte" "x";
  check_roundtrip "short" "hello";
  check_roundtrip "boundary 15" (String.make 15 'a');
  check_roundtrip "boundary 16" (String.make 16 'a');
  check_roundtrip "zeros" (String.make 100_000 '\000');
  check_roundtrip "alphabet repeat"
    (String.concat "" (List.init 5000 (fun _ -> "abcdefghij")))

let test_compresses_repetitive () =
  let s = String.concat "" (List.init 10_000 (fun _ -> "tick tock ")) in
  let c = Lz.compress s in
  Alcotest.(check bool) "ratio < 10%" true
    (String.length c * 10 < String.length s);
  Alcotest.(check string) "roundtrip" s (Lz.decompress ~raw_len:(String.length s) c)

let test_expansion_bound () =
  let r = Lt_util.Xorshift.create 5L in
  List.iter
    (fun n ->
      let s = Lt_util.Xorshift.bytes r n in
      let c = Lz.compress s in
      Alcotest.(check bool)
        (Printf.sprintf "bound at %d" n)
        true
        (String.length c <= Lz.max_compressed_len n);
      Alcotest.(check string) "roundtrip" s (Lz.decompress ~raw_len:n c))
    [ 0; 1; 12; 13; 16; 100; 4096; 65536; 1_000_000 ]

let test_long_matches () =
  (* Match length extensions: runs needing several 255-extension bytes. *)
  let s = String.make 2000 'q' ^ "tail" ^ String.make 600 'q' in
  check_roundtrip "long runs" s;
  (* Overlapping matches with offset 1. *)
  check_roundtrip "offset-1 overlap" ("z" ^ String.make 999 'z')

let test_far_matches () =
  (* A repeat beyond the 64 kB window must still roundtrip (emitted as
     literals or nearer matches). *)
  let blockb = Bytes.create 70_000 in
  let r = Lt_util.Xorshift.create 11L in
  for i = 0 to Bytes.length blockb - 1 do
    Bytes.set blockb i (Char.chr (Lt_util.Xorshift.int r 256))
  done;
  let block = Bytes.to_string blockb in
  check_roundtrip "far repeat" (block ^ block)

let test_corrupt_rejected () =
  let expect_corrupt name f =
    match f () with
    | (_ : string) -> Alcotest.failf "%s: expected Lz.Corrupt" name
    | exception Lz.Corrupt _ -> ()
  in
  expect_corrupt "truncated" (fun () ->
      let c = Lz.compress (String.make 1000 'a') in
      Lz.decompress ~raw_len:1000 (String.sub c 0 (String.length c - 3)));
  expect_corrupt "wrong raw_len short" (fun () ->
      Lz.decompress ~raw_len:5 (Lz.compress "hello world, hello world, hello"));
  expect_corrupt "wrong raw_len long" (fun () ->
      Lz.decompress ~raw_len:500 (Lz.compress "hi"));
  expect_corrupt "bad offset" (fun () ->
      (* token: 1 literal + match, offset 0 (invalid). *)
      Lz.decompress ~raw_len:10 "\x10a\x00\x00rest");
  expect_corrupt "nonempty for empty" (fun () -> Lz.decompress ~raw_len:0 "x")

let prop_roundtrip =
  QCheck.Test.make ~name:"lz roundtrip (arbitrary strings)" ~count:500
    QCheck.(string_gen_of_size Gen.(int_bound 2000) Gen.char)
    (fun s -> roundtrip s = s)

let prop_roundtrip_low_entropy =
  (* Strings over a 4-letter alphabet: many matches, exercises every
     match path. *)
  QCheck.Test.make ~name:"lz roundtrip (low entropy)" ~count:500
    QCheck.(string_gen_of_size Gen.(int_bound 5000) (Gen.oneofl [ 'a'; 'b'; 'c'; 'd' ]))
    (fun s -> roundtrip s = s)

let prop_decompress_never_crashes =
  (* Arbitrary bytes fed to the decoder either decode or raise Corrupt —
     never a crash or out-of-bounds write. *)
  QCheck.Test.make ~name:"lz decoder is total" ~count:1000
    QCheck.(pair small_nat (string_gen_of_size Gen.(int_bound 300) Gen.char))
    (fun (raw_len, junk) ->
      match Lz.decompress ~raw_len junk with
      | (_ : string) -> true
      | exception Lz.Corrupt _ -> true)

let prop_decompress_window =
  (* A payload inflated in place, between arbitrary bytes, decodes as
     the same payload copied out. *)
  QCheck.Test.make ~name:"lz decompress ~off ~len = decompress of the slice"
    ~count:300
    QCheck.(
      triple
        (string_gen_of_size Gen.(int_bound 2000) (Gen.oneofl [ 'a'; 'b'; 'c' ]))
        (string_gen_of_size Gen.(int_bound 20) Gen.char)
        (string_gen_of_size Gen.(int_bound 20) Gen.char))
    (fun (s, before, after) ->
      let c = Lz.compress s in
      let framed = before ^ c ^ after in
      Lz.decompress ~off:(String.length before) ~len:(String.length c)
        ~raw_len:(String.length s) framed
      = s)

let suite =
  [
    ("basic roundtrips", `Quick, test_basic);
    ("compresses repetitive input", `Quick, test_compresses_repetitive);
    ("expansion bound on random input", `Quick, test_expansion_bound);
    ("long matches", `Quick, test_long_matches);
    ("matches beyond window", `Quick, test_far_matches);
    ("corrupt input rejected", `Quick, test_corrupt_rejected);
    Support.qcheck prop_roundtrip;
    Support.qcheck prop_roundtrip_low_entropy;
    Support.qcheck prop_decompress_never_crashes;
    Support.qcheck prop_decompress_window;
  ]
