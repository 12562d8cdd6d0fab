open Lt_util

type t = { bits : Bytes.t; nbits : int; k : int }

(* FNV-1a over OCaml's 63-bit native int (unboxed — a boxed Int64
   multiply per input byte would dominate tablet flushes), with a seed
   mixed in so we get two independent hash streams. FNV-1a consumes its
   input left to right, so the state after a prefix's last byte is that
   prefix's hash: {!add_with_prefixes} reads every boundary's hashes off
   one pass over the full key. *)
let fnv_basis = 0x3bf29ce484222325

let fnv_prime = 0x100000001b3

let seed2 = 0x1E3779B97F4A7C15

let fnv1a seed s =
  let h = ref (fnv_basis lxor seed) in
  for i = 0 to String.length s - 1 do
    h := !h lxor Char.code (String.unsafe_get s i);
    h := !h * fnv_prime
  done;
  !h land max_int

let create ?(bits_per_key = 10) ~expected_keys () =
  let nbits = max 64 (bits_per_key * max 1 expected_keys) in
  (* Round up to a whole number of bytes. *)
  let nbytes = (nbits + 7) / 8 in
  let nbits = nbytes * 8 in
  (* Optimal k = ln 2 * bits/key, clamped to a sane range. *)
  let k = max 1 (min 16 (int_of_float (0.69 *. float_of_int bits_per_key))) in
  { bits = Bytes.make nbytes '\000'; nbits; k }

(* The k bit indices of a key, from its two hashes (double hashing). *)
let index t h1 h2 i = ((h1 + (i * h2)) land max_int) mod t.nbits

let set_bits t h1 h2 =
  for i = 0 to t.k - 1 do
    let idx = index t h1 h2 i in
    let byte = idx lsr 3 and bit = idx land 7 in
    Bytes.unsafe_set t.bits byte
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits byte) lor (1 lsl bit)))
  done

let get_bit t idx =
  let byte = idx lsr 3 and bit = idx land 7 in
  Char.code (Bytes.get t.bits byte) land (1 lsl bit) <> 0

let add t key = set_bits t (fnv1a 0 key) (fnv1a seed2 key)

let add_with_prefixes t ~seen key ends =
  let h1 = ref fnv_basis and h2 = ref (fnv_basis lxor seed2) in
  let j = ref 0 in
  let nends = Array.length ends in
  if Array.length seen < 2 * nends then
    invalid_arg "Bloom.add_with_prefixes: seen needs two slots per end";
  for i = 0 to String.length key - 1 do
    if !j < nends && Array.unsafe_get ends !j = i then begin
      (* A boundary whose pair is the one [seen] holds for it would set
         the bits it set last time. Hashes are non-negative, so a [-1]
         slot never matches. *)
      let p1 = !h1 land max_int and p2 = !h2 land max_int in
      if seen.(2 * !j) <> p1 || seen.((2 * !j) + 1) <> p2 then begin
        seen.(2 * !j) <- p1;
        seen.((2 * !j) + 1) <- p2;
        set_bits t p1 p2
      end;
      incr j
    end;
    let c = Char.code (String.unsafe_get key i) in
    h1 := (!h1 lxor c) * fnv_prime;
    h2 := (!h2 lxor c) * fnv_prime
  done;
  if !j < nends then
    invalid_arg "Bloom.add_with_prefixes: prefix ends must ascend within the key";
  set_bits t (!h1 land max_int) (!h2 land max_int)

let mem t key =
  let h1 = fnv1a 0 key and h2 = fnv1a seed2 key in
  let rec go i = i >= t.k || (get_bit t (index t h1 h2 i) && go (i + 1)) in
  go 0

let bit_count t = t.nbits

let hash_count t = t.k

let encode buf t =
  Binio.put_varint buf t.k;
  Binio.put_string buf (Bytes.to_string t.bits)

let decode cur =
  let k = Binio.get_varint cur in
  let bits = Binio.get_string cur in
  if k < 1 || k > 64 then raise (Binio.Corrupt "bloom: bad hash count");
  if bits = "" then raise (Binio.Corrupt "bloom: empty bit array");
  { bits = Bytes.of_string bits; nbits = String.length bits * 8; k }
