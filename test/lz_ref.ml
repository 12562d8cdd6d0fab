(* The byte-at-a-time LZ codec [Lt_lz.Lz] shipped before its word-at-a-time
   kernel, kept verbatim as the reference the new kernel must match byte
   for byte: same match decisions, same output, and the same set of
   inputs rejected by the decoder. *)

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

let min_match = 4

(* Matches may not start within the final [mf_limit] bytes; the last
   sequence is literal-only. This mirrors the end-of-block conditions of
   other codecs in this family and keeps the decoder's copy loops simple. *)
let mf_limit = 12

let hash_log = 13

let hash_size = 1 lsl hash_log

(* Multiplicative hash of the 4 bytes at [i]. *)
let hash4 s i =
  let w =
    Char.code (String.unsafe_get s i)
    lor (Char.code (String.unsafe_get s (i + 1)) lsl 8)
    lor (Char.code (String.unsafe_get s (i + 2)) lsl 16)
    lor (Char.code (String.unsafe_get s (i + 3)) lsl 24)
  in
  (w * 2654435761) lsr (32 - hash_log) land (hash_size - 1)

let max_compressed_len n = n + (n / 255) + 16

(* Append a literal-length / match-length pair in token format. *)
let put_length b extra =
  let rec go n =
    if n >= 255 then begin
      Buffer.add_char b '\xff';
      go (n - 255)
    end
    else Buffer.add_char b (Char.chr n)
  in
  go extra

let emit_sequence b src ~lit_start ~lit_len ~match_len ~offset =
  let lit_token = if lit_len >= 15 then 15 else lit_len in
  let match_token =
    match match_len with
    | None -> 0
    | Some ml -> if ml - min_match >= 15 then 15 else ml - min_match
  in
  Buffer.add_char b (Char.chr ((lit_token lsl 4) lor match_token));
  if lit_len >= 15 then put_length b (lit_len - 15);
  Buffer.add_substring b src lit_start lit_len;
  match match_len with
  | None -> ()
  | Some ml ->
      Buffer.add_char b (Char.chr (offset land 0xff));
      Buffer.add_char b (Char.chr ((offset lsr 8) land 0xff));
      if ml - min_match >= 15 then put_length b (ml - min_match - 15)

let compress src =
  let n = String.length src in
  if n = 0 then ""
  else if n < mf_limit + min_match then begin
    (* Too short for any match: one literal-only sequence. *)
    let b = Buffer.create (n + 3) in
    emit_sequence b src ~lit_start:0 ~lit_len:n ~match_len:None ~offset:0;
    Buffer.contents b
  end
  else begin
    let b = Buffer.create (n / 2) in
    let table = Array.make hash_size (-1) in
    let match_limit = n - mf_limit in
    let anchor = ref 0 in
    let i = ref 0 in
    while !i < match_limit do
      let h = hash4 src !i in
      let cand = table.(h) in
      table.(h) <- !i;
      if
        cand >= 0
        && !i - cand <= 0xffff
        && String.unsafe_get src cand = String.unsafe_get src !i
        && String.unsafe_get src (cand + 1) = String.unsafe_get src (!i + 1)
        && String.unsafe_get src (cand + 2) = String.unsafe_get src (!i + 2)
        && String.unsafe_get src (cand + 3) = String.unsafe_get src (!i + 3)
      then begin
        (* Extend the match forward, staying clear of the tail. *)
        let limit = n - 5 in
        let ml = ref min_match in
        while
          !i + !ml < limit
          && String.unsafe_get src (cand + !ml) = String.unsafe_get src (!i + !ml)
        do
          incr ml
        done;
        emit_sequence b src ~lit_start:!anchor ~lit_len:(!i - !anchor)
          ~match_len:(Some !ml) ~offset:(!i - cand);
        i := !i + !ml;
        anchor := !i;
        (* Seed the table inside the match so nearby repeats are found. *)
        if !i < match_limit then table.(hash4 src (!i - 2)) <- !i - 2
      end
      else incr i
    done;
    emit_sequence b src ~lit_start:!anchor ~lit_len:(n - !anchor)
      ~match_len:None ~offset:0;
    Buffer.contents b
  end

let decompress ?(off = 0) ?len ~raw_len src =
  let len = match len with None -> String.length src - off | Some l -> l in
  if off < 0 || len < 0 || off + len > String.length src then
    invalid_arg "Lz.decompress: window outside the input";
  if raw_len < 0 then corrupt "negative raw length %d" raw_len;
  if raw_len = 0 then begin
    if len <> 0 then corrupt "nonempty block for empty output";
    ""
  end
  else begin
    (* [ip] runs over the window [off, n) of [src]. *)
    let n = off + len in
    let out = Bytes.create raw_len in
    let op = ref 0 (* output position *) in
    let ip = ref off (* input position *) in
    let read_byte () =
      if !ip >= n then corrupt "truncated block at input offset %d" (!ip - off);
      let c = Char.code (String.unsafe_get src !ip) in
      incr ip;
      c
    in
    let read_length base =
      if base <> 15 then base
      else begin
        let total = ref base in
        let continue = ref true in
        while !continue do
          let c = read_byte () in
          total := !total + c;
          if c <> 255 then continue := false
        done;
        !total
      end
    in
    let finished = ref false in
    while not !finished do
      let token = read_byte () in
      let lit_len = read_length (token lsr 4) in
      if !ip + lit_len > n then corrupt "literal run overruns input";
      if !op + lit_len > raw_len then corrupt "literal run overruns output";
      Bytes.blit_string src !ip out !op lit_len;
      ip := !ip + lit_len;
      op := !op + lit_len;
      if !ip = n then begin
        (* Last sequence: literals only. *)
        if token land 0x0f <> 0 then corrupt "final sequence declares a match";
        finished := true
      end
      else begin
        let o1 = read_byte () in
        let o2 = read_byte () in
        let offset = o1 lor (o2 lsl 8) in
        if offset = 0 || offset > !op then
          corrupt "bad match offset %d at output %d" offset !op;
        let match_len = min_match + read_length (token land 0x0f) in
        if !op + match_len > raw_len then corrupt "match overruns output";
        (* Byte-wise copy: overlapping matches (offset < len) are valid. *)
        let from = !op - offset in
        for k = 0 to match_len - 1 do
          Bytes.unsafe_set out (!op + k) (Bytes.unsafe_get out (from + k))
        done;
        op := !op + match_len
      end
    done;
    if !op <> raw_len then
      corrupt "block decoded to %d bytes, expected %d" !op raw_len;
    Bytes.unsafe_to_string out
  end
