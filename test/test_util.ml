open Lt_util

let test_binio_roundtrip () =
  let b = Buffer.create 64 in
  Binio.put_u8 b 0xab;
  Binio.put_u16 b 0xbeef;
  Binio.put_u32 b 0xdeadbeef;
  Binio.put_i32 b (-42l);
  Binio.put_i64 b Int64.min_int;
  Binio.put_double b 3.14159;
  Binio.put_varint b 0;
  Binio.put_varint b 127;
  Binio.put_varint b 128;
  Binio.put_varint b 300_000_000;
  Binio.put_string b "hello";
  Binio.put_string b "";
  let c = Binio.cursor (Buffer.contents b) in
  Alcotest.(check int) "u8" 0xab (Binio.get_u8 c);
  Alcotest.(check int) "u16" 0xbeef (Binio.get_u16 c);
  Alcotest.(check int) "u32" 0xdeadbeef (Binio.get_u32 c);
  Alcotest.(check int32) "i32" (-42l) (Binio.get_i32 c);
  Alcotest.(check int64) "i64" Int64.min_int (Binio.get_i64 c);
  Alcotest.(check (float 1e-12)) "double" 3.14159 (Binio.get_double c);
  Alcotest.(check int) "varint 0" 0 (Binio.get_varint c);
  Alcotest.(check int) "varint 127" 127 (Binio.get_varint c);
  Alcotest.(check int) "varint 128" 128 (Binio.get_varint c);
  Alcotest.(check int) "varint big" 300_000_000 (Binio.get_varint c);
  Alcotest.(check string) "string" "hello" (Binio.get_string c);
  Alcotest.(check string) "empty string" "" (Binio.get_string c);
  Binio.expect_end c

let test_binio_corrupt () =
  let raises f =
    match f () with
    | () -> Alcotest.fail "expected Binio.Corrupt"
    | exception Binio.Corrupt _ -> ()
  in
  raises (fun () -> ignore (Binio.get_u8 (Binio.cursor "")));
  raises (fun () -> ignore (Binio.get_i64 (Binio.cursor "abc")));
  raises (fun () -> ignore (Binio.get_string (Binio.cursor "\x05ab")));
  raises (fun () ->
      (* Varint of 10 continuation bytes overflows. *)
      ignore (Binio.get_varint (Binio.cursor "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")));
  raises (fun () -> Binio.expect_end (Binio.cursor "x"))

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(int_bound max_int)
    (fun n ->
      let b = Buffer.create 10 in
      Binio.put_varint b n;
      let c = Binio.cursor (Buffer.contents b) in
      let got = Binio.get_varint c in
      Binio.expect_end c;
      got = n)

let test_crc32c_vectors () =
  (* Standard CRC-32C test vector: "123456789" -> 0xE3069283. *)
  Alcotest.(check int32) "check vector" 0xE3069283l (Crc32c.string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32c.string "");
  (* Incremental equals one-shot. *)
  let s = "the quick brown fox jumps over the lazy dog" in
  let a = Crc32c.string s in
  let b = Crc32c.update (Crc32c.update Crc32c.empty s 0 10) s 10 (String.length s - 10) in
  Alcotest.(check int32) "incremental" a b;
  (* Substring form. *)
  Alcotest.(check int32) "substring" (Crc32c.string "quick")
    (Crc32c.string ~off:4 ~len:5 s)

(* Bytewise reflected CRC-32C straight from the polynomial: the reference
   the slicing-by-8 implementation must match bit for bit. *)
let crc32c_reference s off len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then (!c lsr 1) lxor 0x82F63B78 else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let test_crc32c_slicing_matches_bytewise () =
  let s = String.init 128 (fun i -> Char.chr (((i * 131) + 7) land 0xff)) in
  for off = 0 to 7 do
    for len = 0 to 100 do
      Alcotest.(check int32)
        (Printf.sprintf "off %d len %d" off len)
        (crc32c_reference s off len)
        (Crc32c.string ~off ~len s)
    done
  done;
  (* Incremental updates split at every alignment agree too. *)
  for cut = 0 to 20 do
    Alcotest.(check int32)
      (Printf.sprintf "split at %d" cut)
      (crc32c_reference s 3 90)
      (Crc32c.update (Crc32c.update Crc32c.empty s 3 cut) s (3 + cut) (90 - cut))
  done

let test_xorshift_determinism () =
  let a = Xorshift.create 42L and b = Xorshift.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Xorshift.next a) (Xorshift.next b)
  done;
  let c = Xorshift.create 43L in
  Alcotest.(check bool) "different seed differs" true
    (Xorshift.next a <> Xorshift.next c)

let test_xorshift_ranges () =
  let r = Xorshift.create 7L in
  for _ = 1 to 1000 do
    let v = Xorshift.int r 10 in
    if v < 0 || v >= 10 then Alcotest.failf "int out of range: %d" v;
    let f = Xorshift.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done;
  Alcotest.(check int) "bytes length" 33 (String.length (Xorshift.bytes r 33))

let test_xorshift_bytes_incompressible () =
  let r = Xorshift.create 99L in
  let data = Xorshift.bytes r 65536 in
  let compressed = Lt_lz.Lz.compress data in
  Alcotest.(check bool) "no shrink on random data" true
    (String.length compressed >= String.length data - 16)

let test_heap_sorts () =
  let h = Heap.create ~cmp:Int.compare in
  let input = [ 5; 3; 8; 1; 9; 2; 7; 1; 0; 6 ] in
  List.iter (Heap.add h) input;
  Alcotest.(check int) "length" (List.length input) (Heap.length h);
  let rec drain acc =
    if Heap.is_empty h then List.rev acc else drain (Heap.pop h :: acc)
  in
  Alcotest.(check (list int)) "sorted" (List.sort compare input) (drain [])

let test_heap_replace_min () =
  let h = Heap.create ~cmp:Int.compare in
  List.iter (Heap.add h) [ 4; 2; 9 ];
  Heap.replace_min h 7;
  (* 2 replaced by 7: contents now 4 7 9 *)
  Alcotest.(check int) "min" 4 (Heap.pop h);
  Alcotest.(check int) "next" 7 (Heap.pop h);
  Alcotest.(check int) "last" 9 (Heap.pop h);
  Alcotest.check_raises "pop empty" Not_found (fun () -> ignore (Heap.pop h))

let prop_heap_model =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter (Heap.add h) xs;
      let rec drain acc =
        match Heap.peek h with
        | None -> List.rev acc
        | Some _ -> drain (Heap.pop h :: acc)
      in
      drain [] = List.sort compare xs)

let test_cdf () =
  let cdf = Cdf.of_samples [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check int) "count" 5 (Cdf.count cdf);
  Alcotest.(check (float 1e-9)) "median" 3.0 (Cdf.quantile cdf 0.5);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Cdf.min cdf);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Cdf.max cdf);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Cdf.mean cdf);
  Alcotest.(check (float 1e-9)) "interp q0.25" 2.0 (Cdf.quantile cdf 0.25);
  Alcotest.(check (float 1e-9)) "below 3" 0.6 (Cdf.fraction_below cdf 3.0);
  Alcotest.(check (float 1e-9)) "below 0" 0.0 (Cdf.fraction_below cdf 0.0);
  Alcotest.(check (float 1e-9)) "below 99" 1.0 (Cdf.fraction_below cdf 99.0);
  Alcotest.(check int) "series points" 21 (List.length (Cdf.series cdf ~points:21))

let test_clock () =
  let c = Clock.manual ~start:100L () in
  Alcotest.(check int64) "start" 100L (Clock.now c);
  Clock.advance c 50L;
  Alcotest.(check int64) "advanced" 150L (Clock.now c);
  Clock.set c 1000L;
  Alcotest.(check int64) "set" 1000L (Clock.now c);
  Alcotest.check_raises "monotone" (Invalid_argument "Clock.set: time must be monotone")
    (fun () -> Clock.set c 1L);
  Alcotest.(check int64) "hour" 3_600_000_000L Clock.hour;
  Alcotest.(check int64) "week" 604_800_000_000L Clock.week;
  Alcotest.(check int64) "of_float" 1_500_000L (Clock.of_float_s 1.5)

let suite =
  [
    ("binio roundtrip", `Quick, test_binio_roundtrip);
    ("binio corrupt inputs", `Quick, test_binio_corrupt);
    ("crc32c vectors", `Quick, test_crc32c_vectors);
    ("crc32c slicing-by-8 = bytewise", `Quick, test_crc32c_slicing_matches_bytewise);
    ("xorshift determinism", `Quick, test_xorshift_determinism);
    ("xorshift ranges", `Quick, test_xorshift_ranges);
    ("xorshift incompressible", `Quick, test_xorshift_bytes_incompressible);
    ("heap sorts", `Quick, test_heap_sorts);
    ("heap replace_min", `Quick, test_heap_replace_min);
    ("cdf quantiles", `Quick, test_cdf);
    ("manual clock", `Quick, test_clock);
    Support.qcheck prop_varint_roundtrip;
    Support.qcheck prop_heap_model;
  ]
