type fn = Count | Sum | Min | Max | Avg

type spec = { a_fn : fn; a_col : int option }

type col_stats = {
  cs_min : Value.t option;
  cs_max : Value.t option;
  cs_sum : int64 option;
}

let no_stats = { cs_min = None; cs_max = None; cs_sum = None }

(* Per-column stats over a batch of rows. Strings and blobs are not
   tracked (their min/max could be arbitrarily long footer entries);
   wrapping int64 sums are kept only for integer columns, where modular
   addition is associative and so safe to combine per block. *)
let stats_of_rows schema rows ~count =
  let cols = Schema.columns schema in
  Array.mapi
    (fun c (col : Schema.column) ->
      match col.Schema.ctype with
      | Value.T_string | Value.T_blob -> no_stats
      | Value.T_int32 | Value.T_int64 | Value.T_double | Value.T_timestamp ->
          let min_v = ref None and max_v = ref None and sum = ref 0L in
          let has_sum =
            match col.Schema.ctype with
            | Value.T_int32 | Value.T_int64 -> true
            | _ -> false
          in
          for i = 0 to count - 1 do
            let v = rows.(i).(c) in
            (match !min_v with
            | None -> min_v := Some v
            | Some m -> if Value.compare v m < 0 then min_v := Some v);
            (match !max_v with
            | None -> max_v := Some v
            | Some m -> if Value.compare v m > 0 then max_v := Some v);
            if has_sum then
              sum :=
                Int64.add !sum
                  (match v with
                  | Value.Int32 x -> Int64.of_int32 x
                  | Value.Int64 x -> x
                  | _ -> 0L)
          done;
          { cs_min = !min_v;
            cs_max = !max_v;
            cs_sum = (if has_sum then Some !sum else None) })
    cols

type acc = {
  mutable count : int64;
  mutable sum : float;
  mutable sum_i : int64;
  mutable is_int : bool;
  mutable min_v : Value.t option;
  mutable max_v : Value.t option;
}

let fresh_acc () =
  { count = 0L;
    sum = 0.0;
    sum_i = 0L;
    is_int = true;
    min_v = None;
    max_v = None }

let feed acc value =
  acc.count <- Int64.add acc.count 1L;
  (match value with
  | Some (Value.Int32 v) ->
      acc.sum_i <- Int64.add acc.sum_i (Int64.of_int32 v);
      acc.sum <- acc.sum +. Int32.to_float v
  | Some (Value.Int64 v) ->
      acc.sum_i <- Int64.add acc.sum_i v;
      acc.sum <- acc.sum +. Int64.to_float v
  | Some (Value.Double v) ->
      acc.is_int <- false;
      acc.sum <- acc.sum +. v
  | Some (Value.Timestamp _ | Value.String _ | Value.Blob _) | None -> ());
  match value with
  | None -> ()
  | Some v ->
      (match acc.min_v with
      | None -> acc.min_v <- Some v
      | Some m -> if Value.compare v m < 0 then acc.min_v <- Some v);
      (match acc.max_v with
      | None -> acc.max_v <- Some v
      | Some m -> if Value.compare v m > 0 then acc.max_v <- Some v)

(* One row into one accumulator per spec. A column past the row's end
   feeds [None], as [count( * )] does. *)
let feed_row specs accs row =
  Array.iteri
    (fun i s ->
      feed accs.(i)
        (match s.a_col with
        | Some c when c < Array.length row -> Some row.(c)
        | _ -> None))
    specs

(* Average over an integer column divides the exact wrapping integer sum,
   not a float running sum: the integer form is associative, so footer
   absorption and row-at-a-time feeding agree bit for bit regardless of
   how rows were grouped into blocks. *)
let result fn acc =
  match fn with
  | Count -> Value.Int64 acc.count
  | Sum -> if acc.is_int then Value.Int64 acc.sum_i else Value.Double acc.sum
  | Avg ->
      if acc.count = 0L then Value.Double 0.0
      else if acc.is_int then
        Value.Double (Int64.to_float acc.sum_i /. Int64.to_float acc.count)
      else Value.Double (acc.sum /. Int64.to_float acc.count)
  | Min -> ( match acc.min_v with Some v -> v | None -> Value.Int64 0L)
  | Max -> ( match acc.max_v with Some v -> v | None -> Value.Int64 0L)

(* Can a whole block answer [spec] from footer stats alone?
   [ctype_of]/[stats_of] take the spec's column index and return [None]
   when the column does not exist in the block's stored schema (it was
   added later; such blocks must decode so translation fills defaults).
   Float sums are never footer-answered: float addition is not
   associative, and the row path must stay bit-identical across
   layouts. *)
let spec_answerable ~stats_of ~ctype_of spec =
  match (spec.a_fn, spec.a_col) with
  | Count, _ -> true
  | _, None -> false
  | (Sum | Avg), Some c -> (
      match ctype_of c with
      | Some (Value.T_int32 | Value.T_int64) -> (
          match stats_of c with
          | Some st -> st.cs_sum <> None
          | None -> false)
      | _ -> false)
  | (Min | Max), Some c -> (
      match stats_of c with
      | Some st -> st.cs_min <> None && st.cs_max <> None
      | None -> false)

let block_answerable ~specs ~stats_of ~ctype_of =
  Array.for_all (spec_answerable ~stats_of ~ctype_of) specs

(* Fold one whole block's footer stats into the accumulators. Caller
   must have checked {!block_answerable}; stats values must already be
   translated to the target schema's column types. *)
let absorb_block ~accs ~specs ~rows ~stats_of =
  Array.iteri
    (fun i spec ->
      let acc = accs.(i) in
      acc.count <- Int64.add acc.count (Int64.of_int rows);
      match (spec.a_fn, spec.a_col) with
      | Count, _ -> ()
      | (Sum | Avg), Some c ->
          let st = Option.get (stats_of c) in
          acc.sum_i <- Int64.add acc.sum_i (Option.get st.cs_sum)
      | (Min | Max), Some c ->
          let st = Option.get (stats_of c) in
          (match (acc.min_v, st.cs_min) with
          | _, None -> ()
          | None, some -> acc.min_v <- some
          | Some m, Some v ->
              if Value.compare v m < 0 then acc.min_v <- Some v);
          (match (acc.max_v, st.cs_max) with
          | _, None -> ()
          | None, some -> acc.max_v <- some
          | Some m, Some v ->
              if Value.compare v m > 0 then acc.max_v <- Some v)
      | (Sum | Avg | Min | Max), None -> assert false)
    specs
