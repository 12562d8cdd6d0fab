open Lt_util

type ctype = T_int32 | T_int64 | T_double | T_timestamp | T_string | T_blob

type t =
  | Int32 of int32
  | Int64 of int64
  | Double of float
  | Timestamp of int64
  | String of string
  | Blob of string

let type_of = function
  | Int32 _ -> T_int32
  | Int64 _ -> T_int64
  | Double _ -> T_double
  | Timestamp _ -> T_timestamp
  | String _ -> T_string
  | Blob _ -> T_blob

let type_name = function
  | T_int32 -> "int32"
  | T_int64 -> "int64"
  | T_double -> "double"
  | T_timestamp -> "timestamp"
  | T_string -> "string"
  | T_blob -> "blob"

let type_of_name = function
  | "int32" -> Some T_int32
  | "int64" -> Some T_int64
  | "double" -> Some T_double
  | "timestamp" -> Some T_timestamp
  | "string" -> Some T_string
  | "blob" -> Some T_blob
  | _ -> None

let tag = function
  | T_int32 -> 0
  | T_int64 -> 1
  | T_double -> 2
  | T_timestamp -> 3
  | T_string -> 4
  | T_blob -> 5

let[@inline] ctype_of_tag = function
  | 0 -> Some T_int32
  | 1 -> Some T_int64
  | 2 -> Some T_double
  | 3 -> Some T_timestamp
  | 4 -> Some T_string
  | 5 -> Some T_blob
  | _ -> None

let zero = function
  | T_int32 -> Int32 0l
  | T_int64 -> Int64 0L
  | T_double -> Double 0.0
  | T_timestamp -> Timestamp 0L
  | T_string -> String ""
  | T_blob -> Blob ""

let matches ctype v = type_of v = ctype

let widen ~from ~into v =
  if from = into then Some v
  else
    match (from, into, v) with
    | T_int32, T_int64, Int32 x -> Some (Int64 (Int64.of_int32 x))
    | _ -> None

let compare a b =
  match (a, b) with
  | Int32 x, Int32 y -> Int32.compare x y
  | Int64 x, Int64 y -> Int64.compare x y
  | Double x, Double y -> Float.compare x y
  | Timestamp x, Timestamp y -> Int64.compare x y
  | String x, String y -> String.compare x y
  | Blob x, Blob y -> String.compare x y
  | _ ->
      invalid_arg
        (Printf.sprintf "Value.compare: %s vs %s" (type_name (type_of a))
           (type_name (type_of b)))

let equal a b = compare a b = 0

let pp ppf = function
  | Int32 x -> Format.fprintf ppf "%ld" x
  | Int64 x -> Format.fprintf ppf "%Ld" x
  | Double x -> Format.fprintf ppf "%.17g" x
  | Timestamp x -> Format.fprintf ppf "@%Ld" x
  | String s -> Format.fprintf ppf "%S" s
  | Blob s -> Format.fprintf ppf "x'%s'" (String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (String.length s) (String.get s)))))

let to_string v = Format.asprintf "%a" pp v

let encode buf = function
  | Int32 x -> Binio.put_i32 buf x
  | Int64 x -> Binio.put_i64 buf x
  | Double x -> Binio.put_double buf x
  | Timestamp x -> Binio.put_i64 buf x
  | String s -> Binio.put_string buf s
  | Blob s -> Binio.put_string buf s

let encoded_size = function
  | Int32 _ -> 4
  | Int64 _ | Double _ | Timestamp _ -> 8
  | String s | Blob s ->
      let n = String.length s in
      Binio.varint_size n + n

let decode ctype cur =
  match ctype with
  | T_int32 -> Int32 (Binio.get_i32 cur)
  | T_int64 -> Int64 (Binio.get_i64 cur)
  | T_double -> Double (Binio.get_double cur)
  | T_timestamp -> Timestamp (Binio.get_i64 cur)
  | T_string -> String (Binio.get_string cur)
  | T_blob -> Blob (Binio.get_string cur)

let[@inline] skip ctype cur =
  match ctype with
  | T_int32 -> Binio.skip cur 4
  | T_int64 | T_double | T_timestamp -> Binio.skip cur 8
  | T_string | T_blob -> Binio.skip cur (Binio.get_varint cur)
