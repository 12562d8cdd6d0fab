(* Correctness gates. A wrong answer raises [Wrong_answer], which aborts
   the run without a result line; it is never counted as a failed op. *)

open Littletable

exception Wrong_answer of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong_answer s)) fmt

(* FNV-1a over a row's cells (type-tagged), finished with a mix so the
   per-row hashes can be summed into an order-independent digest. *)
let fnv_prime = 0x100000001b3L

let mix_byte h b = Int64.mul (Int64.logxor h (Int64.of_int b)) fnv_prime

let mix_i64 h v =
  let h = ref h in
  for i = 0 to 7 do
    h := mix_byte !h (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
  done;
  !h

let mix_string h s =
  let h = ref (mix_i64 h (Int64.of_int (String.length s))) in
  String.iter (fun c -> h := mix_byte !h (Char.code c)) s;
  !h

let mix_value h = function
  | Value.Int32 v -> mix_i64 (mix_byte h 1) (Int64.of_int32 v)
  | Value.Int64 v -> mix_i64 (mix_byte h 2) v
  | Value.Double v -> mix_i64 (mix_byte h 3) (Int64.bits_of_float v)
  | Value.Timestamp v -> mix_i64 (mix_byte h 4) v
  | Value.String s -> mix_string (mix_byte h 5) s
  | Value.Blob s -> mix_string (mix_byte h 6) s

let row_hash ~table row =
  let h = Array.fold_left mix_value (mix_string 0xcbf29ce484222325L table) row in
  (* murmur3 fmix64, so sums of hashes do not cancel structurally *)
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xff51afd7ed558ccdL in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
  Int64.logxor h (Int64.shift_right_logical h 33)

(* Multiset digest: row count plus the wrapping sum of row hashes. *)
type digest = { mutable rows : int; mutable sum : int64 }

let digest () = { rows = 0; sum = 0L }

let add d ~table row =
  d.rows <- d.rows + 1;
  d.sum <- Int64.add d.sum (row_hash ~table row)

let check_digest ~what ~expected ~actual =
  if expected.rows <> actual.rows || expected.sum <> actual.sum then
    wrong "%s: expected %d rows (digest %016Lx), found %d rows (digest %016Lx)"
      what expected.rows expected.sum actual.rows actual.sum

let row_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Value.type_of x = Value.type_of y && Value.equal x y) a b

let pp_row row = String.concat "," (Array.to_list (Array.map Value.to_string row))

(* An answer's rows against the reference rows, in order. *)
let check_rows ~what ~expected ~actual =
  let rec go i e a =
    match (e, a) with
    | [], [] -> ()
    | x :: e', y :: a' ->
        if not (row_equal x y) then
          wrong "%s: row %d is (%s), expected (%s)" what i (pp_row y) (pp_row x);
        go (i + 1) e' a'
    | [], y :: _ -> wrong "%s: extra row %d (%s)" what i (pp_row y)
    | x :: _, [] -> wrong "%s: missing row %d (%s)" what i (pp_row x)
  in
  go 0 expected actual

let check_row_opt ~what ~expected ~actual =
  match (expected, actual) with
  | None, None -> ()
  | Some e, Some a when row_equal e a -> ()
  | Some e, Some a -> wrong "%s: got (%s), expected (%s)" what (pp_row a) (pp_row e)
  | Some e, None -> wrong "%s: got nothing, expected (%s)" what (pp_row e)
  | None, Some a -> wrong "%s: got (%s), expected nothing" what (pp_row a)

(* Every row of every table in [db], in key order per table; also
   checks that each table's scan is strictly ascending by key. *)
let digest_db db =
  let d = digest () in
  List.iter
    (fun name ->
      let tbl = Db.table db name in
      let src = Table.query_iter tbl Query.all in
      let last = ref None in
      let rec drain () =
        match src () with
        | None -> ()
        | Some (key, row) ->
            (match !last with
            | Some k when String.compare k key >= 0 ->
                wrong "table %s: scan out of key order after a reopen" name
            | _ -> ());
            last := Some key;
            add d ~table:name row;
            drain ()
      in
      drain ())
    (Db.table_names db);
  d
