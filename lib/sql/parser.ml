open Littletable

exception Syntax_error = Lexer.Syntax_error

let error fmt = Format.kasprintf (fun s -> raise (Syntax_error s)) fmt

type state = { mutable toks : Lexer.token list }

let peek st = match st.toks with [] -> Lexer.T_eof | t :: _ -> t

let advance st = match st.toks with [] -> () | _ :: tl -> st.toks <- tl

let next st =
  let t = peek st in
  advance st;
  t

let expect st tok what =
  let t = next st in
  if t <> tok then error "expected %s, got %a" what Lexer.pp_token t

let expect_kw st kw =
  match next st with
  | Lexer.T_ident w when w = kw -> ()
  | t -> error "expected %s, got %a" (String.uppercase_ascii kw) Lexer.pp_token t

let accept_kw st kw =
  match peek st with
  | Lexer.T_ident w when w = kw ->
      advance st;
      true
  | _ -> false

let ident st what =
  match next st with
  | Lexer.T_ident w -> w
  | t -> error "expected %s, got %a" what Lexer.pp_token t

let int_lit st what =
  match next st with
  | Lexer.T_int v -> v
  | t -> error "expected %s, got %a" what Lexer.pp_token t

let literal st =
  match next st with
  | Lexer.T_int v -> Ast.L_int v
  | Lexer.T_float v -> Ast.L_float v
  | Lexer.T_string s -> Ast.L_string s
  | Lexer.T_blob b -> Ast.L_blob b
  | Lexer.T_ident "now" -> Ast.L_now
  | t -> error "expected a literal, got %a" Lexer.pp_token t

let agg_of_name = function
  | "sum" -> Some Ast.Sum
  | "count" -> Some Ast.Count
  | "avg" -> Some Ast.Avg
  | "min" -> Some Ast.Min
  | "max" -> Some Ast.Max
  | _ -> None

let comma_sep st item =
  let rec go acc =
    let x = item st in
    if peek st = Lexer.T_comma then begin
      advance st;
      go (x :: acc)
    end
    else List.rev (x :: acc)
  in
  go []

(* ---- SELECT ---------------------------------------------------------- *)

let projection st =
  let expr =
    match peek st with
    | Lexer.T_ident name -> (
        advance st;
        match agg_of_name name with
        | Some agg when peek st = Lexer.T_lparen ->
            advance st;
            let arg =
              match next st with
              | Lexer.T_star -> None
              | Lexer.T_ident col -> Some col
              | t -> error "expected column or * in aggregate, got %a" Lexer.pp_token t
            in
            expect st Lexer.T_rparen ")";
            Ast.Agg (agg, arg)
        | _ -> Ast.Col name)
    | Lexer.T_int _ | Lexer.T_float _ | Lexer.T_string _ | Lexer.T_blob _ ->
        Ast.Lit (literal st)
    | t -> error "expected a projection, got %a" Lexer.pp_token t
  in
  let alias = if accept_kw st "as" then Some (ident st "alias") else None in
  (expr, alias)

let cmp_op st =
  match next st with
  | Lexer.T_eq -> Ast.Eq
  | Lexer.T_ne -> Ast.Ne
  | Lexer.T_lt -> Ast.Lt
  | Lexer.T_le -> Ast.Le
  | Lexer.T_gt -> Ast.Gt
  | Lexer.T_ge -> Ast.Ge
  | t -> error "expected a comparison operator, got %a" Lexer.pp_token t

let condition st =
  let col = ident st "column name" in
  let op = cmp_op st in
  let lit = literal st in
  { Ast.col; op; lit }

let parse_select st =
  let star, projections =
    if peek st = Lexer.T_star then begin
      advance st;
      (true, [])
    end
    else (false, comma_sep st projection)
  in
  expect_kw st "from";
  let table = ident st "table name" in
  let where =
    if accept_kw st "where" then begin
      let rec go acc =
        let c = condition st in
        if accept_kw st "and" then go (c :: acc) else List.rev (c :: acc)
      in
      go []
    end
    else []
  in
  let group_by =
    if accept_kw st "group" then begin
      expect_kw st "by";
      comma_sep st (fun st -> ident st "group column")
    end
    else []
  in
  let order =
    if accept_kw st "order" then begin
      expect_kw st "by";
      expect_kw st "key";
      if accept_kw st "desc" then Some Ast.Order_desc
      else begin
        ignore (accept_kw st "asc");
        Some Ast.Order_asc
      end
    end
    else None
  in
  let limit =
    if accept_kw st "limit" then begin
      let n = int_lit st "limit" in
      if n < 0L || n > Int64.of_int max_int then
        error "LIMIT must be between 0 and %d, got %Ld" max_int n;
      Some (Int64.to_int n)
    end
    else None
  in
  Ast.Select { projections; star; table; where; group_by; order; limit }

(* ---- INSERT ---------------------------------------------------------- *)

let parse_insert st =
  expect_kw st "into";
  let insert_table = ident st "table name" in
  let insert_columns =
    if peek st = Lexer.T_lparen then begin
      advance st;
      let cols = comma_sep st (fun st -> ident st "column name") in
      expect st Lexer.T_rparen ")";
      Some cols
    end
    else None
  in
  expect_kw st "values";
  let tuple st =
    expect st Lexer.T_lparen "(";
    let vs = comma_sep st literal in
    expect st Lexer.T_rparen ")";
    vs
  in
  let values = comma_sep st tuple in
  Ast.Insert { insert_table; insert_columns; values }

(* ---- CREATE ---------------------------------------------------------- *)

let ctype_of_name = function
  | "int32" -> Some Value.T_int32
  | "int64" -> Some Value.T_int64
  | "double" -> Some Value.T_double
  | "timestamp" -> Some Value.T_timestamp
  | "string" | "text" -> Some Value.T_string
  | "blob" -> Some Value.T_blob
  | _ -> None

let ttl_unit = function
  | "second" | "seconds" -> Some 1_000_000L
  | "minute" | "minutes" -> Some 60_000_000L
  | "hour" | "hours" -> Some 3_600_000_000L
  | "day" | "days" -> Some 86_400_000_000L
  | "week" | "weeks" -> Some 604_800_000_000L
  | _ -> None

let parse_create st =
  expect_kw st "table";
  let create_table = ident st "table name" in
  expect st Lexer.T_lparen "(";
  let columns = ref [] and pkey = ref None in
  let rec body () =
    (match peek st with
    | Lexer.T_ident "primary" ->
        advance st;
        expect_kw st "key";
        expect st Lexer.T_lparen "(";
        let cols = comma_sep st (fun st -> ident st "key column") in
        expect st Lexer.T_rparen ")";
        if !pkey <> None then error "duplicate PRIMARY KEY clause";
        pkey := Some cols
    | _ ->
        let col_name = ident st "column name" in
        let tname = ident st "column type" in
        let col_type =
          match ctype_of_name tname with
          | Some t -> t
          | None -> error "unknown type %S" tname
        in
        let col_default =
          if accept_kw st "default" then Some (literal st) else None
        in
        columns := { Ast.col_name; col_type; col_default } :: !columns);
    if peek st = Lexer.T_comma then begin
      advance st;
      body ()
    end
  in
  body ();
  expect st Lexer.T_rparen ")";
  let ttl =
    if accept_kw st "ttl" then begin
      let n = int_lit st "TTL value" in
      let u = ident st "TTL unit" in
      match ttl_unit u with
      | Some unit -> Some (Int64.mul n unit)
      | None -> error "unknown TTL unit %S" u
    end
    else None
  in
  match !pkey with
  | None -> error "CREATE TABLE requires a PRIMARY KEY clause"
  | Some pkey ->
      Ast.Create { create_table; columns = List.rev !columns; pkey; ttl }

(* ---- DELETE ---------------------------------------------------------- *)

let parse_delete st =
  expect_kw st "from";
  let delete_table = ident st "table name" in
  let delete_where =
    if accept_kw st "where" then begin
      let rec go acc =
        let c = condition st in
        if accept_kw st "and" then go (c :: acc) else List.rev (c :: acc)
      in
      go []
    end
    else []
  in
  Ast.Delete { delete_table; delete_where }

(* ---- ALTER ------------------------------------------------------------ *)

let parse_ttl_value st =
  let n = int_lit st "TTL value" in
  let u = ident st "TTL unit" in
  match ttl_unit u with
  | Some unit -> Int64.mul n unit
  | None -> error "unknown TTL unit %S" u

let parse_alter st =
  expect_kw st "table";
  let alter_table = ident st "table name" in
  let action =
    match next st with
    | Lexer.T_ident "add" ->
        expect_kw st "column";
        let col_name = ident st "column name" in
        let tname = ident st "column type" in
        let col_type =
          match ctype_of_name tname with
          | Some t -> t
          | None -> error "unknown type %S" tname
        in
        let col_default =
          if accept_kw st "default" then Some (literal st) else None
        in
        Ast.Add_column { Ast.col_name; col_type; col_default }
    | Lexer.T_ident "widen" ->
        expect_kw st "column";
        Ast.Widen_column (ident st "column name")
    | Lexer.T_ident "set" ->
        expect_kw st "ttl";
        Ast.Set_ttl (Some (parse_ttl_value st))
    | Lexer.T_ident "clear" ->
        expect_kw st "ttl";
        Ast.Set_ttl None
    | t -> error "expected ADD, WIDEN, SET or CLEAR, got %a" Lexer.pp_token t
  in
  Ast.Alter { alter_table; action }

(* ---- Top level ------------------------------------------------------- *)

let parse_stmt st =
  match next st with
  | Lexer.T_ident "select" -> parse_select st
  | Lexer.T_ident "insert" -> parse_insert st
  | Lexer.T_ident "create" -> parse_create st
  | Lexer.T_ident "delete" -> parse_delete st
  | Lexer.T_ident "alter" -> parse_alter st
  | Lexer.T_ident "drop" ->
      expect_kw st "table";
      let if_exists =
        if accept_kw st "if" then begin
          expect_kw st "exists";
          true
        end
        else false
      in
      Ast.Drop { drop_table = ident st "table name"; if_exists }
  | Lexer.T_ident "show" ->
      expect_kw st "tables";
      Ast.Show_tables
  | Lexer.T_ident "describe" -> Ast.Describe (ident st "table name")
  | t -> error "expected a statement, got %a" Lexer.pp_token t

let parse input =
  let st = { toks = Lexer.tokenize input } in
  let stmt = parse_stmt st in
  if peek st = Lexer.T_semi then advance st;
  (match peek st with
  | Lexer.T_eof -> ()
  | t -> error "trailing input: %a" Lexer.pp_token t);
  stmt
