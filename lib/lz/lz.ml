exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

let min_match = 4

(* Matches may not start within the final [mf_limit] bytes; the last
   sequence is literal-only. This mirrors the end-of-block conditions of
   other codecs in this family and keeps the decoder's copy loops simple. *)
let mf_limit = 12

let hash_log = 13

let hash_size = 1 lsl hash_log

(* Unchecked native-endian word reads. Every call site below keeps the
   read inside the input: the match finder only reads words that start
   before [n - 5], where a match must end. *)
external get32u : string -> int -> int32 = "%caml_string_get32u"

external get64u : string -> int -> int64 = "%caml_string_get64u"

external bswap32 : int32 -> int32 = "%bswap_int32"

(* The 4 bytes at [i] as an unsigned little-endian integer. *)
let word32 s i =
  let w = get32u s i in
  Int32.to_int (if Sys.big_endian then bswap32 w else w) land 0xffff_ffff

(* Multiplicative hash of a 4-byte word. *)
let hash4 w = (w * 2654435761) lsr (32 - hash_log) land (hash_size - 1)

let max_compressed_len n = n + (n / 255) + 16

(* The compressor writes into one [Bytes] of [max_compressed_len n]
   bytes (every sequence spends at most one byte per 255 literals more
   than it consumes), so every write is in bounds. *)

(* Write the 255-extension bytes of a length that overflowed its
   nibble; returns the next output position. *)
let put_length out op extra =
  let op = ref op and extra = ref extra in
  while !extra >= 255 do
    Bytes.unsafe_set out !op '\xff';
    incr op;
    extra := !extra - 255
  done;
  Bytes.unsafe_set out !op (Char.unsafe_chr !extra);
  !op + 1

(* One sequence: token, literal run [src.[lit_start .. lit_start +
   lit_len)], then, when [match_len > 0], the match offset and length.
   Returns the next output position. *)
let emit_sequence out op src ~lit_start ~lit_len ~match_len ~offset =
  let lit_token = if lit_len >= 15 then 15 else lit_len in
  let match_token =
    if match_len = 0 then 0
    else if match_len - min_match >= 15 then 15
    else match_len - min_match
  in
  Bytes.unsafe_set out op (Char.unsafe_chr ((lit_token lsl 4) lor match_token));
  let op = if lit_len >= 15 then put_length out (op + 1) (lit_len - 15) else op + 1 in
  Bytes.blit_string src lit_start out op lit_len;
  let op = op + lit_len in
  if match_len = 0 then op
  else begin
    Bytes.unsafe_set out op (Char.unsafe_chr (offset land 0xff));
    Bytes.unsafe_set out (op + 1) (Char.unsafe_chr ((offset lsr 8) land 0xff));
    if match_len - min_match >= 15 then
      put_length out (op + 2) (match_len - min_match - 15)
    else op + 2
  end

let compress src =
  let n = String.length src in
  if n = 0 then ""
  else begin
    let out = Bytes.create (max_compressed_len n) in
    let op = ref 0 in
    let anchor = ref 0 in
    (* Inputs too short for any match are one literal-only sequence. *)
    if n >= mf_limit + min_match then begin
      let table = Array.make hash_size (-1) in
      let match_limit = n - mf_limit in
      (* A match ends at or before [limit]; its 8-byte steps read
         [cand + ml .. i + ml + 7], all below [limit]. *)
      let limit = n - 5 in
      let i = ref 0 in
      while !i < match_limit do
        let w = word32 src !i in
        let h = hash4 w in
        let cand = Array.unsafe_get table h in
        Array.unsafe_set table h !i;
        if cand >= 0 && !i - cand <= 0xffff && word32 src cand = w then begin
          (* Extend the match forward, staying clear of the tail: whole
             words while they fit before [limit], then byte by byte. *)
          let ml = ref min_match in
          while
            !i + !ml + 8 <= limit
            && get64u src (cand + !ml) = get64u src (!i + !ml)
          do
            ml := !ml + 8
          done;
          while
            !i + !ml < limit
            && String.unsafe_get src (cand + !ml)
               = String.unsafe_get src (!i + !ml)
          do
            incr ml
          done;
          op :=
            emit_sequence out !op src ~lit_start:!anchor
              ~lit_len:(!i - !anchor) ~match_len:!ml ~offset:(!i - cand);
          i := !i + !ml;
          anchor := !i;
          (* Seed the table inside the match so nearby repeats are found. *)
          if !i < match_limit then
            Array.unsafe_set table (hash4 (word32 src (!i - 2))) (!i - 2)
        end
        else incr i
      done
    end;
    op :=
      emit_sequence out !op src ~lit_start:!anchor ~lit_len:(n - !anchor)
        ~match_len:0 ~offset:0;
    Bytes.sub_string out 0 !op
  end

let truncated ip off = corrupt "truncated block at input offset %d" (ip - off)

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
    (* [ip] runs over the window [off, n) of [src]; every read is checked
       against [n] before it is made. *)
    let n = off + len in
    let out = Bytes.create raw_len in
    let op = ref 0 (* output position *) in
    let ip = ref off (* input position *) in
    let finished = ref false in
    while not !finished do
      if !ip >= n then truncated !ip off;
      let token = Char.code (String.unsafe_get src !ip) in
      incr ip;
      let lit_len = ref (token lsr 4) in
      if !lit_len = 15 then begin
        let c = ref 255 in
        while !c = 255 do
          if !ip >= n then truncated !ip off;
          c := Char.code (String.unsafe_get src !ip);
          incr ip;
          lit_len := !lit_len + !c
        done
      end;
      let lit_len = !lit_len in
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
        if !ip + 2 > n then truncated n off;
        let offset =
          Char.code (String.unsafe_get src !ip)
          lor (Char.code (String.unsafe_get src (!ip + 1)) lsl 8)
        in
        ip := !ip + 2;
        if offset = 0 || offset > !op then
          corrupt "bad match offset %d at output %d" offset !op;
        let match_len = ref (min_match + (token land 0x0f)) in
        if token land 0x0f = 15 then begin
          let c = ref 255 in
          while !c = 255 do
            if !ip >= n then truncated !ip off;
            c := Char.code (String.unsafe_get src !ip);
            incr ip;
            match_len := !match_len + !c
          done
        end;
        let match_len = !match_len in
        if !op + match_len > raw_len then corrupt "match overruns output";
        let from = !op - offset in
        if offset >= match_len then Bytes.blit out from out !op match_len
        else
          (* Overlapping (offset < length) matches repeat the last
             [offset] bytes: copy byte by byte. *)
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
