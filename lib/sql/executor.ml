open Littletable

exception Exec_error of string

let error fmt = Format.kasprintf (fun s -> raise (Exec_error s)) fmt

type backend = {
  b_schema : string -> Schema.t option;
  b_query : 'a. string -> Query.t -> (Cursor.source -> 'a) -> 'a;
  b_query_agg : (string -> Query.t -> Agg.spec array -> Value.t array) option;
  b_insert : string -> Value.t array list -> unit;
  b_create : string -> Schema.t -> ttl:int64 option -> unit;
  b_drop : string -> unit;
  b_tables : unit -> string list;
  b_now : unit -> int64;
  b_delete_prefix : string -> Value.t list -> int;
  b_add_column : string -> Schema.column -> unit;
  b_widen_column : string -> string -> unit;
  b_set_ttl : string -> int64 option -> unit;
}

type result =
  | Rows of { columns : string list; rows : Value.t array list }
  | Affected of int
  | Done of string

let local_backend db =
  {
    b_schema =
      (fun name -> Option.map Table.schema (Db.find_table db name));
    b_query =
      (fun name q f ->
        match Db.find_table db name with
        | Some t -> Table.with_query t q f
        | None -> error "no such table %S" name);
    b_query_agg =
      Some
        (fun name q specs ->
          match Db.find_table db name with
          | Some t -> fst (Table.query_agg t q ~specs)
          | None -> error "no such table %S" name);
    b_insert =
      (fun name rows ->
        match Db.find_table db name with
        | Some t -> (
            try Table.insert t rows
            with Table.Duplicate_key k -> error "duplicate key (%s)" k)
        | None -> error "no such table %S" name);
    b_create =
      (fun name schema ~ttl ->
        match Db.create_table db name schema ~ttl with
        | (_ : Table.t) -> ()
        | exception Invalid_argument msg -> error "%s" msg);
    b_drop =
      (fun name ->
        try Db.drop_table db name with Not_found -> error "no such table %S" name);
    b_tables = (fun () -> Db.table_names db);
    b_now = (fun () -> Lt_util.Clock.now (Db.clock db));
    b_delete_prefix =
      (fun name prefix ->
        match Db.find_table db name with
        | Some t -> (
            try Table.delete_prefix t prefix
            with Schema.Invalid msg -> error "%s" msg)
        | None -> error "no such table %S" name);
    b_add_column =
      (fun name col ->
        match Db.find_table db name with
        | Some t -> (
            try Table.add_column t col
            with Schema.Invalid msg -> error "%s" msg)
        | None -> error "no such table %S" name);
    b_widen_column =
      (fun name cname ->
        match Db.find_table db name with
        | Some t -> (
            try Table.widen_column t cname
            with Schema.Invalid msg -> error "%s" msg)
        | None -> error "no such table %S" name);
    b_set_ttl =
      (fun name ttl ->
        match Db.find_table db name with
        | Some t -> Table.set_ttl t ttl
        | None -> error "no such table %S" name);
  }

let schema_of b name =
  match b.b_schema name with
  | Some s -> s
  | None -> error "no such table %S" name

(* ---- WHERE residuals -------------------------------------------------- *)

let cond_holds (r : Planner.residual) row =
  let c = Value.compare row.(r.Planner.r_col) r.Planner.r_value in
  match r.Planner.r_op with
  | Ast.Eq -> c = 0
  | Ast.Ne -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

(* ---- Aggregation ------------------------------------------------------ *)

(* Accumulators live in the engine ({!Littletable.Agg}) so that rows fed
   here and blocks absorbed from columnar footer stats inside the engine
   can never drift apart. *)

let fn_of_agg = function
  | Ast.Count -> Agg.Count
  | Ast.Sum -> Agg.Sum
  | Ast.Avg -> Agg.Avg
  | Ast.Min -> Agg.Min
  | Ast.Max -> Agg.Max

(* ---- SELECT ------------------------------------------------------------ *)

let run_select b (s : Ast.select) =
  let schema = schema_of b s.Ast.table in
  let plan = Planner.plan_select schema ~now:(b.b_now ()) s in
  let columns = List.map snd plan.Planner.outputs in
  (* Whole-query aggregate pushdown: no grouping and no residual
     filters means the engine can answer the aggregates itself —
     columnar tablets straight from block footers — without streaming a
     single row up here. Grouped or filtered queries still stream. *)
  let pushed_agg =
    if
      plan.Planner.aggregated
      && plan.Planner.group_cols = []
      && plan.Planner.residuals = []
    then b.b_query_agg
    else None
  in
  (* One accumulator spec per aggregate output, in output order. Without
     GROUP BY the planner rejects plain columns, so there every output
     is an aggregate. *)
  let specs =
    Array.of_list
      (List.filter_map
         (fun (o, _) ->
           match o with
           | Planner.Out_agg (a, c) -> Some { Agg.a_fn = fn_of_agg a; a_col = c }
           | Planner.Out_col _ -> None)
         plan.Planner.outputs)
  in
  match pushed_agg with
  | Some query_agg ->
      let row = query_agg s.Ast.table plan.Planner.query specs in
      let rows =
        match plan.Planner.post_limit with Some 0 -> [] | _ -> [ row ]
      in
      Rows { columns; rows }
  | None ->
  b.b_query s.Ast.table plan.Planner.query @@ fun src ->
  let passes row = List.for_all (fun r -> cond_holds r row) plan.Planner.residuals in
  if not plan.Planner.aggregated then begin
    let out = ref [] and count = ref 0 in
    let limit = match plan.Planner.post_limit with Some n -> n | None -> max_int in
    let rec go () =
      if !count < limit then begin
        match src () with
        | None -> ()
        | Some (_, row) ->
            if passes row then begin
              let projected =
                Array.of_list
                  (List.map
                     (fun (o, _) ->
                       match o with
                       | Planner.Out_col i -> row.(i)
                       | Planner.Out_agg _ -> assert false)
                     plan.Planner.outputs)
              in
              out := projected :: !out;
              incr count
            end;
            go ()
      end
    in
    go ();
    Rows { columns; rows = List.rev !out }
  end
  else begin
    (* Group rows; one accumulator per aggregate output per group. *)
    let module Tbl = Hashtbl in
    let groups : (Value.t list, Agg.acc array * Value.t array) Tbl.t =
      Tbl.create 64
    in
    let order = ref [] in
    let fresh_accs () = Array.map (fun _ -> Agg.fresh_acc ()) specs in
    let rec consume () =
      match src () with
      | None -> ()
      | Some (_, row) ->
          if passes row then begin
            let key = List.map (fun i -> row.(i)) plan.Planner.group_cols in
            let accs, _ =
              match Tbl.find_opt groups key with
              | Some entry -> entry
              | None ->
                  let entry = (fresh_accs (), row) in
                  Tbl.add groups key entry;
                  order := key :: !order;
                  entry
            in
            Agg.feed_row specs accs row
          end;
          consume ()
    in
    consume ();
    (* With no GROUP BY, an aggregate query yields one row even when the
       scan is empty. *)
    if plan.Planner.group_cols = [] && Tbl.length groups = 0 then begin
      Tbl.add groups [] (fresh_accs (), [||]);
      order := [ [] ]
    end;
    (* Rows come off the scan in key order; groups keyed on leading key
       columns thus appear in order too. Preserve first-seen order. *)
    let rows =
      List.rev_map
        (fun key ->
          let accs, sample = Tbl.find groups key in
          let agg_idx = ref (-1) in
          Array.of_list
            (List.map
               (fun (o, _) ->
                 match o with
                 | Planner.Out_col i -> sample.(i)
                 | Planner.Out_agg _ ->
                     incr agg_idx;
                     Agg.result specs.(!agg_idx).Agg.a_fn accs.(!agg_idx))
               plan.Planner.outputs))
        !order
    in
    let rows =
      match plan.Planner.post_limit with
      | Some n -> List.filteri (fun i _ -> i < n) rows
      | None -> rows
    in
    Rows { columns; rows }
  end

(* ---- INSERT ------------------------------------------------------------ *)

let run_insert b (i : Ast.insert) =
  let schema = schema_of b i.Ast.insert_table in
  let cols = Schema.columns schema in
  let now = b.b_now () in
  let target_indices =
    match i.Ast.insert_columns with
    | None -> Array.to_list (Array.init (Array.length cols) Fun.id)
    | Some names ->
        List.map
          (fun n ->
            match Schema.find_column schema n with
            | Some idx -> idx
            | None -> error "unknown column %S" n)
          names
  in
  let ts_idx = Schema.ts_index schema in
  let rows =
    List.map
      (fun tuple ->
        if List.length tuple <> List.length target_indices then
          error "INSERT arity mismatch: %d values for %d columns"
            (List.length tuple) (List.length target_indices);
        let row = Array.map (fun c -> c.Schema.default) cols in
        (* An omitted timestamp defaults to the current time (§3.1). *)
        row.(ts_idx) <- Value.Timestamp now;
        List.iter2
          (fun idx lit ->
            row.(idx) <-
              (try Planner.coerce ~now cols.(idx).Schema.ctype lit
               with Planner.Plan_error msg -> error "column %S: %s" cols.(idx).Schema.name msg))
          target_indices tuple;
        row)
      i.Ast.values
  in
  b.b_insert i.Ast.insert_table rows;
  Affected (List.length rows)

(* ---- CREATE ------------------------------------------------------------ *)

let run_create b (c : Ast.create) =
  let now = b.b_now () in
  let columns =
    List.map
      (fun (d : Ast.column_def) ->
        let default =
          match d.Ast.col_default with
          | Some lit -> (
              try Planner.coerce ~now d.Ast.col_type lit
              with Planner.Plan_error msg -> error "column %S: %s" d.Ast.col_name msg)
          | None -> Value.zero d.Ast.col_type
        in
        { Schema.name = d.Ast.col_name; ctype = d.Ast.col_type; default })
      c.Ast.columns
  in
  let schema =
    try Schema.create ~columns ~pkey:c.Ast.pkey
    with Schema.Invalid msg -> error "%s" msg
  in
  b.b_create c.Ast.create_table schema ~ttl:c.Ast.ttl;
  Done (Printf.sprintf "table %s created" c.Ast.create_table)

(* ---- DESCRIBE / SHOW ---------------------------------------------------- *)

let run_describe b name =
  let schema = schema_of b name in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i (c : Schema.column) ->
           [|
             Value.String c.Schema.name;
             Value.String (Value.type_name c.Schema.ctype);
             Value.String (Value.to_string c.Schema.default);
             Value.String (if Schema.is_pkey schema i then "key" else "");
           |])
         (Schema.columns schema))
  in
  Rows { columns = [ "column"; "type"; "default"; "key" ]; rows }

(* DELETE maps to the engine's prefix delete: the conditions must be
   equalities on a leading run of primary-key columns (in any order). *)
let run_delete b ~table ~where =
  let schema = schema_of b table in
  let now = b.b_now () in
  let cols = Schema.columns schema in
  let by_col =
    List.map
      (fun (c : Ast.cond) ->
        if c.Ast.op <> Ast.Eq then
          error "DELETE supports only equality conditions (column %S)" c.Ast.col;
        let idx =
          match Schema.find_column schema c.Ast.col with
          | Some i -> i
          | None -> error "unknown column %S" c.Ast.col
        in
        (idx, Planner.coerce ~now cols.(idx).Schema.ctype c.Ast.lit))
      where
  in
  let pkey = Schema.pkey schema in
  let prefix = ref [] in
  let remaining = ref by_col in
  (try
     Array.iter
       (fun key_col ->
         match List.partition (fun (idx, _) -> idx = key_col) !remaining with
         | (_, v) :: _, rest ->
             prefix := v :: !prefix;
             remaining := rest
         | [], _ -> raise Exit)
       pkey
   with Exit -> ());
  if !remaining <> [] then
    error
      "DELETE conditions must cover a leading run of primary-key columns";
  Affected (b.b_delete_prefix table (List.rev !prefix))

let run_alter b ~table ~(action : Ast.alter_action) =
  (match action with
  | Ast.Add_column d ->
      let default =
        match d.Ast.col_default with
        | Some lit -> (
            try Planner.coerce ~now:(b.b_now ()) d.Ast.col_type lit
            with Planner.Plan_error msg -> error "column %S: %s" d.Ast.col_name msg)
        | None -> Value.zero d.Ast.col_type
      in
      b.b_add_column table
        { Schema.name = d.Ast.col_name; ctype = d.Ast.col_type; default }
  | Ast.Widen_column c -> b.b_widen_column table c
  | Ast.Set_ttl ttl -> b.b_set_ttl table ttl);
  Done (Printf.sprintf "table %s altered" table)

let execute_stmt b = function
  | Ast.Select s -> run_select b s
  | Ast.Insert i -> run_insert b i
  | Ast.Create c -> run_create b c
  | Ast.Drop { drop_table; if_exists } -> (
      match b.b_drop drop_table with
      | () -> Done (Printf.sprintf "table %s dropped" drop_table)
      | exception Exec_error _ when if_exists ->
          Done (Printf.sprintf "table %s did not exist" drop_table))
  | Ast.Delete { delete_table; delete_where } ->
      run_delete b ~table:delete_table ~where:delete_where
  | Ast.Alter { alter_table; action } -> run_alter b ~table:alter_table ~action
  | Ast.Show_tables ->
      Rows
        {
          columns = [ "table" ];
          rows = List.map (fun n -> [| Value.String n |]) (b.b_tables ());
        }
  | Ast.Describe name -> run_describe b name

let execute b input = execute_stmt b (Parser.parse input)

let pp_result ppf = function
  | Affected n -> Format.fprintf ppf "%d row%s affected" n (if n = 1 then "" else "s")
  | Done msg -> Format.fprintf ppf "%s" msg
  | Rows { columns; rows } ->
      let cells =
        List.map (fun row -> Array.to_list (Array.map Value.to_string row)) rows
      in
      let widths =
        List.fold_left
          (fun ws row ->
            List.map2 (fun w cell -> max w (String.length cell)) ws row)
          (List.map String.length columns)
          cells
      in
      let pad s w = s ^ String.make (w - String.length s) ' ' in
      let render row = String.concat "  " (List.map2 pad row widths) in
      Format.fprintf ppf "%s@." (render columns);
      Format.fprintf ppf "%s@."
        (String.concat "  " (List.map (fun w -> String.make w '-') widths));
      List.iter (fun row -> Format.fprintf ppf "%s@." (render row)) cells;
      Format.fprintf ppf "(%d row%s)" (List.length rows)
        (if List.length rows = 1 then "" else "s")
