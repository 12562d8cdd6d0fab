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

(* {1 The word-at-a-time kernel against the byte-at-a-time reference}

   [Lz_ref] is the codec as it was before the kernel read words: the
   compressor must make the same match decisions (same bytes out), and
   the decoder must accept and reject exactly the same inputs. *)

let same_as_reference s = Lz.compress s = Lz_ref.compress s

(* Rows shaped like tablet rows: repeated key prefixes, slowly moving
   counters. *)
let gen_rows =
  QCheck.Gen.(
    map
      (fun rows ->
        String.concat ""
          (List.map
             (fun (net, dev, ts, v) ->
               Printf.sprintf "n%02d d%03d t%010d v%d|" net dev ts v)
             rows))
      (list_size (int_bound 200)
         (quad (int_bound 3) (int_bound 20) (int_bound 100_000) (int_bound 50))))

(* A random block repeated, then a short tail: the second copy's match
   runs into the [n - 5] limit at every tail length. *)
let gen_match_to_tail =
  QCheck.Gen.(
    map
      (fun (p, tail) -> p ^ p ^ tail)
      (pair
         (string_size ~gen:char (int_range 1 200))
         (string_size ~gen:char (int_bound 16))))

(* Periodic runs: matches at every offset from 1 to 16, with a few
   bytes flipped so runs end at arbitrary places. *)
let gen_short_offsets =
  QCheck.Gen.(
    map
      (fun (unit, len, flips) ->
        let b = Bytes.init len (fun i -> unit.[i mod String.length unit]) in
        List.iter
          (fun (at, c) -> if len > 0 then Bytes.set b (at mod len) c)
          flips;
        Bytes.to_string b)
      (triple
         (string_size ~gen:char (int_range 1 16))
         (int_bound 600)
         (list_size (int_bound 4) (pair nat char))))

let compress_equivalence name ~count gen =
  QCheck.Test.make ~name:("lz compress = reference: " ^ name) ~count
    (QCheck.make ~print:String.escaped gen)
    same_as_reference

let prop_same_bytes_random =
  compress_equivalence "random bytes" ~count:300
    QCheck.Gen.(string_size ~gen:char (int_bound 3000))

let prop_same_bytes_rows = compress_equivalence "row-like data" ~count:300 gen_rows

(* Around [mf_limit + min_match] = 16, where the short-input path ends. *)
let prop_same_bytes_short =
  compress_equivalence "lengths 0-40" ~count:1000
    QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_bound 40))

let prop_same_bytes_tail =
  compress_equivalence "long matches ending near n - 5" ~count:500
    gen_match_to_tail

let prop_same_bytes_offsets =
  compress_equivalence "offsets 1-16" ~count:500 gen_short_offsets

let test_same_bytes_fixed () =
  List.iter
    (fun s ->
      Alcotest.(check string)
        (Printf.sprintf "length %d" (String.length s))
        (Lz_ref.compress s) (Lz.compress s))
    [ ""; "a"; String.make 16 'a'; String.make 17 'a'; String.make 70_000 'z';
      String.concat "" (List.init 5000 (fun i -> string_of_int (i mod 97))) ]

(* Both decoders on the same input: the same output, or both reject. *)
let decode_outcome decompress ~raw_len s =
  match decompress ~raw_len s with
  | out -> Some out
  | exception (Lz.Corrupt _ | Lz_ref.Corrupt _) -> None

let prop_decoder_agrees =
  QCheck.Test.make ~name:"lz decompress accepts what the reference accepts"
    ~count:2000
    QCheck.(
      pair (int_bound 300)
        (string_gen_of_size Gen.(int_bound 300)
           (Gen.oneof
              [ Gen.char; Gen.oneofl [ '\x00'; '\x01'; '\x0f'; '\xf0'; '\xff' ] ])))
    (fun (raw_len, junk) ->
      decode_outcome (fun ~raw_len s -> Lz.decompress ~raw_len s) ~raw_len junk
      = decode_outcome (fun ~raw_len s -> Lz_ref.decompress ~raw_len s) ~raw_len junk)

(* Valid blocks cut or altered at every byte: both decoders agree. *)
let test_decoder_agrees_on_mutations () =
  let s = String.concat "" (List.init 300 (fun i -> Printf.sprintf "k%03d" (i mod 37))) in
  let c = Lz.compress s in
  let n = String.length s in
  let agree label input raw_len =
    if
      decode_outcome (fun ~raw_len s -> Lz.decompress ~raw_len s) ~raw_len input
      <> decode_outcome (fun ~raw_len s -> Lz_ref.decompress ~raw_len s) ~raw_len input
    then Alcotest.failf "decoders disagree on %s" label
  in
  for cut = 0 to String.length c do
    agree (Printf.sprintf "prefix %d" cut) (String.sub c 0 cut) n
  done;
  String.iteri
    (fun i _ ->
      List.iter
        (fun byte ->
          let b = Bytes.of_string c in
          Bytes.set b i byte;
          agree (Printf.sprintf "byte %d" i) (Bytes.to_string b) n)
        [ '\x00'; '\x01'; '\xff' ])
    c

(* One [Corrupt] per read the decoder makes inline. *)
let test_corrupt_inline_reads () =
  let expect_corrupt name raw_len input =
    match Lz.decompress ~raw_len input with
    | (_ : string) -> Alcotest.failf "%s: expected Lz.Corrupt" name
    | exception Lz.Corrupt _ -> ()
  in
  (* Literal nibble 15 promises extension bytes; the input ends first. *)
  expect_corrupt "truncated literal extension" 40 "\xf0";
  expect_corrupt "truncated literal extension run" 600 "\xf0\xff\xff";
  (* One literal, then a match whose offset is cut after one byte. *)
  expect_corrupt "truncated offset" 10 "\x14a\x01";
  (* A match nibble of 15 promises extension bytes; the input ends. *)
  expect_corrupt "truncated match extension" 40 "\x1fa\x01\x00";
  expect_corrupt "truncated match extension run" 600 "\x1fa\x01\x00\xff";
  (* Two literals written, then a match three bytes back. *)
  expect_corrupt "offset greater than output" 10 "\x20ab\x03\x00"

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
    ("compress = reference on fixed inputs", `Quick, test_same_bytes_fixed);
    Support.qcheck prop_same_bytes_random;
    Support.qcheck prop_same_bytes_rows;
    Support.qcheck prop_same_bytes_short;
    Support.qcheck prop_same_bytes_tail;
    Support.qcheck prop_same_bytes_offsets;
    Support.qcheck prop_decoder_agrees;
    ("decoders agree on cut and altered blocks", `Quick,
      test_decoder_agrees_on_mutations);
    ("corrupt inline reads rejected", `Quick, test_corrupt_inline_reads);
  ]
