open Lt_util

type column = { name : string; ctype : Value.ctype; default : Value.t }

type t = { columns : column array; pkey : int array; version : int }

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let ts_column_name = "ts"

let validate columns pkey =
  if Array.length columns = 0 then invalid "schema has no columns";
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun c ->
      if c.name = "" then invalid "empty column name";
      if Hashtbl.mem seen c.name then invalid "duplicate column %S" c.name;
      Hashtbl.add seen c.name ();
      if not (Value.matches c.ctype c.default) then
        invalid "column %S: default %s does not match type %s" c.name
          (Value.to_string c.default)
          (Value.type_name c.ctype))
    columns;
  if Array.length pkey = 0 then invalid "empty primary key";
  let kseen = Hashtbl.create 8 in
  Array.iter
    (fun i ->
      if i < 0 || i >= Array.length columns then invalid "bad key index";
      if Hashtbl.mem kseen i then invalid "duplicate key column %S" columns.(i).name;
      Hashtbl.add kseen i ())
    pkey;
  let last = columns.(pkey.(Array.length pkey - 1)) in
  if last.name <> ts_column_name || last.ctype <> Value.T_timestamp then
    invalid "the last primary-key column must be a timestamp named %S"
      ts_column_name

let create ~columns ~pkey =
  let columns = Array.of_list columns in
  let index_of name =
    let rec go i =
      if i >= Array.length columns then invalid "unknown key column %S" name
      else if columns.(i).name = name then i
      else go (i + 1)
    in
    go 0
  in
  let pkey = Array.of_list (List.map index_of pkey) in
  validate columns pkey;
  { columns; pkey; version = 0 }

let columns t = t.columns

let pkey t = t.pkey

let ts_index t = t.pkey.(Array.length t.pkey - 1)

let version t = t.version

let column_count t = Array.length t.columns

let find_column t name =
  let rec go i =
    if i >= Array.length t.columns then None
    else if t.columns.(i).name = name then Some i
    else go (i + 1)
  in
  go 0

let pkey_names t = Array.to_list (Array.map (fun i -> t.columns.(i).name) t.pkey)

(* The per-row checks below are plain loops: they run for every column
   of every inserted or decoded row, and a closure passed to an array
   iterator is allocated on each call. *)
let is_pkey t i =
  let k = t.pkey in
  let j = ref 0 in
  while !j < Array.length k && k.(!j) <> i do incr j done;
  !j < Array.length k

let validate_row t row =
  if Array.length row <> Array.length t.columns then
    invalid "row has %d values, schema has %d columns" (Array.length row)
      (Array.length t.columns);
  for i = 0 to Array.length row - 1 do
    let v = row.(i) in
    if not (Value.matches t.columns.(i).ctype v) then
      invalid "column %S: value %s does not match type %s" t.columns.(i).name
        (Value.to_string v)
        (Value.type_name t.columns.(i).ctype)
  done

let row_ts t row =
  match row.(ts_index t) with
  | Value.Timestamp ts -> ts
  | v -> invalid "timestamp column holds %s" (Value.to_string v)

let add_column t col =
  if find_column t col.name <> None then invalid "duplicate column %S" col.name;
  if not (Value.matches col.ctype col.default) then
    invalid "column %S: default/type mismatch" col.name;
  {
    t with
    columns = Array.append t.columns [| col |];
    version = t.version + 1;
  }

let widen_column t name =
  match find_column t name with
  | None -> invalid "unknown column %S" name
  | Some i ->
      if t.columns.(i).ctype <> Value.T_int32 then
        invalid "column %S is not int32" name;
      let columns = Array.copy t.columns in
      let default =
        match Value.widen ~from:Value.T_int32 ~into:Value.T_int64 t.columns.(i).default with
        | Some v -> v
        | None -> assert false
      in
      columns.(i) <- { t.columns.(i) with ctype = Value.T_int64; default };
      { t with columns; version = t.version + 1 }

let translate_row ~from ~into row =
  if Array.length row <> Array.length from.columns then
    invalid "translate_row: row does not match source schema";
  Array.init (Array.length into.columns) (fun i ->
      let col = into.columns.(i) in
      if i < Array.length from.columns then begin
        let src = from.columns.(i) in
        if src.name <> col.name then
          invalid "translate_row: column %d renamed %S -> %S" i src.name col.name;
        match Value.widen ~from:src.ctype ~into:col.ctype row.(i) with
        | Some v -> v
        | None ->
            invalid "translate_row: column %S cannot go from %s to %s" col.name
              (Value.type_name src.ctype) (Value.type_name col.ctype)
      end
      else col.default)

let equal a b =
  a.version = b.version && a.pkey = b.pkey
  && Array.length a.columns = Array.length b.columns
  && Array.for_all2
       (fun x y ->
         x.name = y.name && x.ctype = y.ctype && Value.equal x.default y.default)
       a.columns b.columns

let pp ppf t =
  Format.fprintf ppf "@[<v>schema v%d:@," t.version;
  Array.iteri
    (fun i c ->
      Format.fprintf ppf "  %s %s default %s%s@," c.name
        (Value.type_name c.ctype)
        (Value.to_string c.default)
        (if is_pkey t i then " [key]" else ""))
    t.columns;
  Format.fprintf ppf "  primary key (%s)@]" (String.concat ", " (pkey_names t))

let ctype_tag = function
  | Value.T_int32 -> 0
  | Value.T_int64 -> 1
  | Value.T_double -> 2
  | Value.T_timestamp -> 3
  | Value.T_string -> 4
  | Value.T_blob -> 5

let ctype_of_tag = function
  | 0 -> Value.T_int32
  | 1 -> Value.T_int64
  | 2 -> Value.T_double
  | 3 -> Value.T_timestamp
  | 4 -> Value.T_string
  | 5 -> Value.T_blob
  | n -> raise (Binio.Corrupt (Printf.sprintf "schema: bad type tag %d" n))

let encode_column buf c =
  Binio.put_string buf c.name;
  Binio.put_u8 buf (ctype_tag c.ctype);
  Value.encode buf c.default

let decode_column cur =
  let name = Binio.get_string cur in
  let ctype = ctype_of_tag (Binio.get_u8 cur) in
  let default = Value.decode ctype cur in
  { name; ctype; default }

let encode buf t =
  Binio.put_varint buf t.version;
  Binio.put_varint buf (Array.length t.columns);
  Array.iter (fun c -> encode_column buf c) t.columns;
  Binio.put_varint buf (Array.length t.pkey);
  Array.iter (fun i -> Binio.put_varint buf i) t.pkey

let decode cur =
  let version = Binio.get_varint cur in
  let ncols = Binio.get_varint cur in
  if ncols <= 0 || ncols > 4096 then raise (Binio.Corrupt "schema: bad column count");
  let columns = Array.init ncols (fun _ -> decode_column cur) in
  let nkey = Binio.get_varint cur in
  if nkey <= 0 || nkey > ncols then raise (Binio.Corrupt "schema: bad key count");
  let pkey = Array.init nkey (fun _ -> Binio.get_varint cur) in
  (try validate columns pkey
   with Invalid msg -> raise (Binio.Corrupt ("schema: " ^ msg)));
  { columns; pkey; version }
