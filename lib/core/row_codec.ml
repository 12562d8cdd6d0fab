open Lt_util

(* The per-row loops here are plain [for] loops: a closure handed to an
   array iterator is allocated on every call, and these run once per
   row stored, flushed or read. *)
let encode_value_into buf schema row =
  for i = 0 to Array.length row - 1 do
    if not (Schema.is_pkey schema i) then Value.encode buf row.(i)
  done

let encode_value schema row =
  let buf = Buffer.create 32 in
  encode_value_into buf schema row;
  Buffer.contents buf

(* Decode the non-key columns from a bounded cursor; the cursor's window
   is the value encoding, whether it is a whole string or a slice of a
   block payload. *)
let decode_cursor schema ~key cur =
  let cols = Schema.columns schema in
  let row = Array.make (Array.length cols) (Value.Int32 0l) in
  Key_codec.decode_key_into schema (Binio.cursor key) row;
  for i = 0 to Array.length cols - 1 do
    if not (Schema.is_pkey schema i) then
      row.(i) <- Value.decode cols.(i).Schema.ctype cur
  done;
  Binio.expect_end cur;
  row

let decode schema ~key ~value = decode_cursor schema ~key (Binio.cursor value)

let decode_translated_cursor ~from ~into ~key cur =
  if Schema.version from = Schema.version into then
    decode_cursor into ~key cur
  else begin
    let row = decode_cursor from ~key cur in
    Schema.translate_row ~from ~into row
  end

let decode_translated ~from ~into ~key ~value =
  decode_translated_cursor ~from ~into ~key (Binio.cursor value)

let decode_translated_slice ~from ~into ~key ~data ~off ~len =
  decode_translated_cursor ~from ~into ~key (Binio.cursor ~pos:off ~len data)

(* Exact encoding sizes without materializing either part (the memtable
   accounts bytes per insert; re-running both encoders here doubled the
   hot path's allocation). Exactness against the real encoders is
   asserted in the model-oracle suite. *)
let value_size schema row =
  let n = ref 0 in
  for i = 0 to Array.length row - 1 do
    if not (Schema.is_pkey schema i) then n := !n + Value.encoded_size row.(i)
  done;
  !n

let stored_size schema row =
  Key_codec.key_size schema row + value_size schema row
