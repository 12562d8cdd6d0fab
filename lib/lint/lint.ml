[@@@lint.allow
  "vfs-discipline: the linter is a build-time tool that reads source files \
   directly; it never touches database state, so the torture harness has \
   nothing to intercept here"]

(* Static analyzer for the project invariants the type checker cannot
   see. One parse per file (compiler-libs), one Ast_iterator pass per
   .ml collecting banned-identifier findings, [@lint.allow] suppression
   ranges, and the raw material of the lock-acquisition graph; then a
   whole-tree pass (mli coverage, lock-order cycles) and a suppression
   filter. See lint.mli for the rule catalogue. *)

type finding = {
  f_file : string;
  f_line : int;
  f_col : int;
  f_rule : string;
  f_msg : string;
}

(* Internal finding: carries the start offset so suppression ranges can
   be applied after collection. *)
type ifinding = { i_f : finding; i_cnum : int }

let rules_with_doc =
  [
    ( "vfs-discipline",
      "durability-relevant filesystem calls must flow through Vfs \
       (lib/vfs), or the crash-point torture harness has blind spots" );
    ( "lock-safety",
      "critical sections must use the exception-safe \
       Util.Mutexes.with_lock; a bare Mutex.lock leaks the lock when the \
       body raises" );
    ( "lock-order",
      "the static lock-acquisition graph (nested with_lock regions, \
       followed through calls across modules) must stay acyclic" );
    ( "clock-discipline",
      "clock and randomness reads must flow through Util.Clock / \
       injected PRNGs (lib/util/clock.ml), or --replay determinism \
       silently breaks" );
    ( "no-stdout",
      "lib code logs via Logs, never print_*/printf: stdout belongs to \
       the shell and bench output formats" );
    ( "domain-discipline",
      "Domain.spawn/Domain.join only inside lib/exec: every worker \
       domain must come from the shared Pool so worker counts, shutdown \
       joins, and queue behaviour stay centralized" );
    ( "mli-coverage",
      "every module under lib/ keeps an interface so the public surface \
       is deliberate" );
    ( "net-discipline",
      "raw Unix socket calls only inside lib/net: every wire interaction \
       goes through Protocol/Client/Server so framing, versioning, and \
       reconnect policy stay in one place" );
    ( "domain-race",
      "[typed] every mutable cell (record field, ref, Hashtbl, Buffer, \
       Bytes) reachable from a domain-crossing closure must be protected \
       by one statically-resolved with_lock region at every access, or \
       be Atomic.t; inferred per-cell, RacerD-style, from .cmt files" );
    ( "blocking-under-lock",
      "[typed] no VFS I/O, sleeps, socket ops, or cross-module lock \
       acquisition while holding a hot-path mutex (Table.state, \
       Table.writer_lock, Block_cache's mutex): a blocked writer stalls \
       the whole batched ingest path" );
    ( "atomic-discipline",
      "[typed] plain refs used as counters from multiple domains lose \
       increments; make them Atomic.t (catches metric/stat counters \
       that dodge the registry)" );
  ]

let rule_names = List.map fst rules_with_doc

let rule_doc name =
  match List.assoc_opt name rules_with_doc with
  | Some doc -> doc
  | None -> "unknown rule"

let typed_rules = [ "domain-race"; "blocking-under-lock"; "atomic-discipline" ]

(* Minimal bad/good example pairs for [--explain]. *)
let rule_example name =
  match name with
  | "vfs-discipline" ->
      Some
        ( "let fd = Unix.openfile path [ Unix.O_RDONLY ] 0",
          "let h = Vfs.open_read vfs path" )
  | "lock-safety" ->
      Some
        ( "Mutex.lock t.state; work t; Mutex.unlock t.state",
          "Mutexes.with_lock t.state (fun () -> work t)" )
  | "lock-order" ->
      Some
        ( "(* a.ml *) with_lock a (fun () -> B.f ())  where B.f takes b\n\
           (* b.ml *) with_lock b (fun () -> A.g ())  where A.g takes a",
          "order the classes: both paths take a before b" )
  | "clock-discipline" ->
      Some
        ( "let now = Unix.gettimeofday ()",
          "let now = Util.Clock.now clock  (* injected *)" )
  | "no-stdout" ->
      Some
        ( "print_endline (\"flushed \" ^ string_of_int n)",
          "Logs.info (fun m -> m \"flushed %d\" n)" )
  | "domain-discipline" ->
      Some
        ( "let d = Domain.spawn (fun () -> compact t)",
          "Pool.submit pool (fun () -> compact t)" )
  | "mli-coverage" ->
      Some ("lib/core/foo.ml with no lib/core/foo.mli", "write the interface")
  | "net-discipline" ->
      Some
        ( "let s = Unix.socket PF_INET SOCK_STREAM 0",
          "let conn = Lt_net.Client.connect ~host ~port" )
  | "domain-race" ->
      Some
        ( "let t = { mutable hits : int; mutex : Mutex.t }\n\
           Pool.submit pool (fun () -> t.hits <- t.hits + 1)  (* no lock *)\n\
           ... with_lock t.mutex (fun () -> t.hits)           (* locked *)",
          "Pool.submit pool (fun () ->\n\
          \  Mutexes.with_lock t.mutex (fun () -> t.hits <- t.hits + 1))" )
  | "blocking-under-lock" ->
      Some
        ( "with_lock t.writer_lock (fun () -> Vfs.fsync vfs wal)",
          "let job = with_lock t.writer_lock (fun () -> seal t) in\n\
           Vfs.fsync vfs job  (* I/O outside the region *)" )
  | "atomic-discipline" ->
      Some
        ( "let served = ref 0\n\
           Pool.submit pool (fun () -> incr served)",
          "let served = Atomic.make 0\n\
           Pool.submit pool (fun () -> Atomic.incr served)" )
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

(* Where a file sits in the project layout, from the *last* lib/bin/
   bench/test segment of its path — so fixture trees like
   test/lint_fixtures/case/lib/foo.ml classify as lib code too. *)
type ctx = Lib of string list | Bin | Bench | Test | Other

let context path =
  let rec go acc = function
    | [] -> acc
    | "lib" :: rest -> go (Lib rest) rest
    | "bin" :: rest -> go Bin rest
    | "bench" :: rest -> go Bench rest
    | "test" :: rest -> go Test rest
    | _ :: rest -> go acc rest
  in
  go Other (String.split_on_char '/' path)

let module_base path = Filename.remove_extension (Filename.basename path)

(* ------------------------------------------------------------------ *)
(* Rule applicability                                                  *)
(* ------------------------------------------------------------------ *)

let vfs_applies path =
  match context path with
  | Lib ("vfs" :: _) -> false
  | Lib _ | Bin | Bench -> true
  | Test | Other -> false

let lock_safety_applies path =
  match context path with
  | Lib [ "util"; "mutexes.ml" ] -> false
  | Lib _ | Bin | Bench -> true
  | Test | Other -> false

let clock_applies path =
  match context path with
  | Lib [ "util"; "clock.ml" ] -> false
  | Lib _ | Bin | Bench | Test -> true
  | Other -> false

let stdout_applies path =
  match context path with
  | Lib _ | Test -> true
  | Bin | Bench | Other -> false

let domain_applies path =
  match context path with
  | Lib ("exec" :: _) -> false
  | Lib _ | Bin | Bench -> true
  | Test | Other -> false

let net_applies path =
  match context path with
  | Lib ("net" :: _) -> false
  | Lib _ | Bin | Bench -> true
  | Test | Other -> false

let scanned path =
  match context path with
  | Lib _ | Bin | Bench -> true
  | Test | Other -> false

(* ------------------------------------------------------------------ *)
(* Banned identifiers                                                  *)
(* ------------------------------------------------------------------ *)

let drop_stdlib = function "Stdlib" :: rest -> rest | p -> p

let vfs_unix =
  [ "openfile"; "mkdir"; "rmdir"; "rename"; "unlink"; "link"; "symlink";
    "fsync"; "truncate"; "ftruncate"; "opendir"; "readdir"; "closedir";
    "stat"; "lstat"; "fstat"; "chmod"; "chown"; "utimes"; "access";
    "realpath" ]

let vfs_sys =
  [ "file_exists"; "is_directory"; "is_regular_file"; "remove"; "rename";
    "readdir"; "mkdir"; "rmdir"; "getcwd"; "chdir"; "command" ]

let vfs_stdlib =
  [ "open_out"; "open_out_bin"; "open_out_gen"; "open_in"; "open_in_bin";
    "open_in_gen" ]

let vfs_channel =
  [ "open_bin"; "open_text"; "open_gen"; "with_open_bin"; "with_open_text";
    "with_open_gen" ]

let net_unix =
  [ "socket"; "socketpair"; "connect"; "bind"; "listen"; "accept";
    "setsockopt"; "getsockopt"; "getsockname"; "getpeername"; "shutdown";
    "recv"; "recvfrom"; "send"; "sendto"; "getaddrinfo"; "gethostbyname" ]

let stdout_plain =
  [ "print_string"; "print_bytes"; "print_int"; "print_float"; "print_char";
    "print_endline"; "print_newline"; "prerr_string"; "prerr_bytes";
    "prerr_int"; "prerr_float"; "prerr_char"; "prerr_endline";
    "prerr_newline"; "stdout"; "stderr" ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* [rule, message] for a banned identifier path, or None. *)
let banned_ident path_parts =
  let mem = List.mem in
  match drop_stdlib path_parts with
  | [ "Unix"; f ] when mem f vfs_unix ->
      Some
        ( "vfs-discipline",
          Printf.sprintf "raw filesystem call Unix.%s; route it through Vfs" f
        )
  | [ "Sys"; f ] when mem f vfs_sys ->
      Some
        ( "vfs-discipline",
          Printf.sprintf "raw filesystem call Sys.%s; route it through Vfs" f )
  | [ f ] when mem f vfs_stdlib ->
      Some
        ( "vfs-discipline",
          Printf.sprintf "raw channel open %s; route it through Vfs" f )
  | [ ("In_channel" | "Out_channel"); f ] when mem f vfs_channel ->
      Some ("vfs-discipline", "raw channel open; route it through Vfs")
  | [ "Filename"; ("temp_file" | "open_temp_file") ] ->
      Some ("vfs-discipline", "temp-file creation; route it through Vfs")
  | [ "Domain"; ("spawn" | "join") as f ] ->
      Some
        ( "domain-discipline",
          Printf.sprintf
            "Domain.%s outside lib/exec; spawn workers through the shared \
             Lt_exec.Pool"
            f )
  | [ "Mutex"; ("lock" | "unlock" | "try_lock") as f ] ->
      Some
        ( "lock-safety",
          Printf.sprintf
            "bare Mutex.%s; use the exception-safe Util.Mutexes.with_lock" f )
  | [ "Unix"; f ] when mem f net_unix ->
      Some
        ( "net-discipline",
          Printf.sprintf
            "raw socket call Unix.%s outside lib/net; speak the wire \
             through Lt_net.Client/Server"
            f )
  | [ "Unix"; ("gettimeofday" | "time") as f ] ->
      Some
        ( "clock-discipline",
          Printf.sprintf "direct clock read Unix.%s; use Util.Clock" f )
  | [ "Sys"; "time" ] ->
      Some ("clock-discipline", "direct clock read Sys.time; use Util.Clock")
  | "Random" :: _ ->
      Some
        ( "clock-discipline",
          "ambient randomness from Random; use an injected Util.Xorshift \
           PRNG so runs replay deterministically" )
  | [ f ] when mem f stdout_plain ->
      Some
        ( "no-stdout",
          Printf.sprintf "%s in lib code; log via Logs instead" f )
  | [ "Printf"; ("printf" | "eprintf") as f ] ->
      Some
        ( "no-stdout",
          Printf.sprintf "Printf.%s in lib code; log via Logs instead" f )
  | [ "Format"; f ]
    when f = "printf" || f = "eprintf" || f = "std_formatter"
         || f = "err_formatter"
         || starts_with ~prefix:"print_" f ->
      Some
        ( "no-stdout",
          Printf.sprintf "Format.%s in lib code; log via Logs instead" f )
  | _ -> None

let rule_applies rule path =
  match rule with
  | "vfs-discipline" -> vfs_applies path
  | "lock-safety" -> lock_safety_applies path
  | "clock-discipline" -> clock_applies path
  | "no-stdout" -> stdout_applies path
  | "domain-discipline" -> domain_applies path
  | "net-discipline" -> net_applies path
  | "lock-order" | "mli-coverage" -> scanned path
  | "domain-race" | "blocking-under-lock" | "atomic-discipline" ->
      scanned path
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Suppression                                                         *)
(* ------------------------------------------------------------------ *)

type allow = { a_rule : string; a_start : int; a_end : int }

let whole_file = { a_rule = ""; a_start = 0; a_end = max_int }

(* Parse an attribute payload of the form "rule: justification". *)
let parse_allow_payload (attr : Parsetree.attribute) =
  let open Parsetree in
  match attr.attr_payload with
  | PStr
      [ { pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _ } ] -> (
      match String.index_opt s ':' with
      | None -> Error (Printf.sprintf "missing justification in %S" s)
      | Some i ->
          let rule = String.trim (String.sub s 0 i) in
          let just =
            String.trim (String.sub s (i + 1) (String.length s - i - 1))
          in
          if not (List.mem rule rule_names) then
            Error (Printf.sprintf "unknown rule %S" rule)
          else if just = "" then
            Error (Printf.sprintf "empty justification for rule %S" rule)
          else Ok rule)
  | _ -> Error "payload must be a string literal \"rule: justification\""

(* ------------------------------------------------------------------ *)
(* Lock-order graph raw material                                       *)
(* ------------------------------------------------------------------ *)

type loc_info = { l_file : string; l_line : int; l_col : int; l_cnum : int }

(* A call site is kept as a list of candidate function keys, innermost
   scope first; resolution picks the first candidate that names a
   function the scan actually saw. *)
type lock_acc = {
  (* function key -> lock classes it acquires directly *)
  direct : (string, (string * loc_info) list ref) Hashtbl.t;
  (* function key -> call sites (candidate keys) it applies *)
  fcalls : (string, string list list ref) Hashtbl.t;
  (* held lock class -> callee applied inside the region *)
  pending : (string * string list * loc_info) list ref;
  (* held lock class -> lock class acquired inside the region *)
  nested : (string * string * loc_info) list ref;
}

let lock_acc_create () =
  { direct = Hashtbl.create 64;
    fcalls = Hashtbl.create 64;
    pending = ref [];
    nested = ref [] }

let tbl_push tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add tbl key (ref [ v ])

(* ------------------------------------------------------------------ *)
(* Per-file AST pass                                                   *)
(* ------------------------------------------------------------------ *)

let loc_info path (loc : Location.t) =
  { l_file = path;
    l_line = loc.loc_start.pos_lnum;
    l_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
    l_cnum = loc.loc_start.pos_cnum }

let mk_finding li rule msg =
  { i_f =
      { f_file = li.l_file;
        f_line = li.l_line;
        f_col = li.l_col;
        f_rule = rule;
        f_msg = msg };
    i_cnum = li.l_cnum }

(* The trailing identifier of a mutex expression — [t.state],
   [s.mutex], [mutex] — names the lock; prefixed with the module it
   lives in, it is the lock class of the region. *)
let lock_ident (e : Parsetree.expression) =
  let open Parsetree in
  match e.pexp_desc with
  | Pexp_field (_, { txt = lid; _ }) | Pexp_ident { txt = lid; _ } ->
      Longident.last lid
  | _ -> "anon"

let last_module_of = function
  | Longident.Lident _ -> None
  | Longident.Ldot (prefix, _) -> (
      match Longident.flatten prefix with
      | [] -> None
      | parts -> Some (List.nth parts (List.length parts - 1)))
  | Longident.Lapply _ -> None

type file_pass = {
  p_findings : ifinding list ref;
  p_allows : allow list ref;
}

let scan_structure ~path ~locks structure pass =
  let open Parsetree in
  let base = module_base path in
  let aliases : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let resolve_module m =
    match Hashtbl.find_opt aliases m with Some real -> real | None -> m
  in
  (* [prefix] is the scope path of the binding the walker is inside
     ("table", then "table.change_schema", ...), so same-named local
     helpers in different functions stay distinct lock-graph nodes.
     [fn_keys] is where direct acquisitions/calls register: the scope
     key, plus a local-module key for toplevel bindings so [Module.f]
     call sites from other files resolve here too. *)
  let prefix = ref base in
  let fn_keys = ref [ base ^ ".<toplevel>" ] in
  let mod_stack = ref [] in
  let held = ref [] in
  let add_allow rule (loc : Location.t) =
    pass.p_allows :=
      { a_rule = rule;
        a_start = loc.loc_start.pos_cnum;
        a_end = loc.loc_end.pos_cnum }
      :: !(pass.p_allows)
  in
  let report li rule msg =
    if rule_applies rule path then
      pass.p_findings := mk_finding li rule msg :: !(pass.p_findings)
  in
  let handle_attrs attrs (range : Location.t) =
    List.iter
      (fun (attr : attribute) ->
        if attr.attr_name.txt = "lint.allow" then
          match parse_allow_payload attr with
          | Ok rule -> add_allow rule range
          | Error msg ->
              let li = loc_info path attr.attr_loc in
              pass.p_findings :=
                mk_finding li "lint-allow"
                  (Printf.sprintf "invalid [@lint.allow]: %s" msg)
                :: !(pass.p_findings))
      attrs
  in
  let keys_of_name name =
    let scope_key = !prefix ^ "." ^ name in
    if !prefix <> base then [ scope_key ]
    else
      match !mod_stack with
      | [] -> [ scope_key ]
      | m :: _ -> [ scope_key; String.uncapitalize_ascii m ^ "." ^ name ]
  in
  (* Candidate keys for an unqualified call to [name]: each enclosing
     scope in turn, innermost first. *)
  let candidates_of_lident name =
    let rec ancestors p acc =
      let acc = (p ^ "." ^ name) :: acc in
      match String.rindex_opt p '.' with
      | Some i -> ancestors (String.sub p 0 i) acc
      | None -> List.rev acc
    in
    ancestors !prefix []
  in
  let record_acquire cls li =
    List.iter (fun k -> tbl_push locks.direct k (cls, li)) !fn_keys
  in
  let record_call cands li =
    List.iter (fun k -> tbl_push locks.fcalls k cands) !fn_keys;
    List.iter
      (fun h -> locks.pending := (h, cands, li) :: !(locks.pending))
      !held
  in
  let check_ident lid (loc : Location.t) =
    match banned_ident (Longident.flatten lid) with
    | Some (rule, msg) -> report (loc_info path loc) rule msg
    | None -> ()
  in
  let super = Ast_iterator.default_iterator in
  let expr it (e : expression) =
    handle_attrs e.pexp_attributes e.pexp_loc;
    match e.pexp_desc with
    | Pexp_ident { txt = lid; loc } -> check_ident lid loc
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt = head; _ }; _ }, args)
      when Longident.last head = "with_lock" -> (
        match List.filter (fun (l, _) -> l = Asttypes.Nolabel) args with
        | (_, mutex_arg) :: rest ->
            let cls = base ^ "." ^ lock_ident mutex_arg in
            let li = loc_info path e.pexp_loc in
            List.iter
              (fun h -> locks.nested := (h, cls, li) :: !(locks.nested))
              !held;
            record_acquire cls li;
            it.Ast_iterator.expr it mutex_arg;
            held := cls :: !held;
            List.iter (fun (_, a) -> it.Ast_iterator.expr it a) rest;
            held := List.tl !held
        | [] -> super.expr it e)
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt = head; _ }; _ }, _) ->
        (let li = loc_info path e.pexp_loc in
         match head with
         | Longident.Lident f -> record_call (candidates_of_lident f) li
         | Longident.Ldot (_, f) -> (
             match last_module_of head with
             | Some m ->
                 let m = resolve_module m in
                 record_call [ String.uncapitalize_ascii m ^ "." ^ f ] li
             | None -> ())
         | Longident.Lapply _ -> ());
        super.expr it e
    | _ -> super.expr it e
  in
  let value_binding it (vb : value_binding) =
    handle_attrs vb.pvb_attributes vb.pvb_loc;
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt = name; _ } ->
        let saved_keys = !fn_keys and saved_prefix = !prefix in
        fn_keys := keys_of_name name;
        prefix := saved_prefix ^ "." ^ name;
        it.Ast_iterator.pat it vb.pvb_pat;
        it.Ast_iterator.expr it vb.pvb_expr;
        fn_keys := saved_keys;
        prefix := saved_prefix
    | _ -> super.value_binding it vb
  in
  let module_binding it (mb : module_binding) =
    (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
    | Some name, Pmod_ident { txt = lid; _ } -> (
        (* [module X = A.B] makes X another name for B in call paths. *)
        match List.rev (Longident.flatten lid) with
        | real :: _ -> Hashtbl.replace aliases name real
        | [] -> ())
    | Some name, _ ->
        let saved = !mod_stack in
        mod_stack := name :: saved;
        super.module_binding it mb;
        mod_stack := saved
    | None, _ -> super.module_binding it mb)
  in
  let structure_item it (si : structure_item) =
    (match si.pstr_desc with
    | Pstr_attribute attr when attr.attr_name.txt = "lint.allow" -> (
        match parse_allow_payload attr with
        | Ok rule -> pass.p_allows := { whole_file with a_rule = rule } :: !(pass.p_allows)
        | Error msg ->
            let li = loc_info path attr.attr_loc in
            pass.p_findings :=
              mk_finding li "lint-allow"
                (Printf.sprintf "invalid [@@@lint.allow]: %s" msg)
              :: !(pass.p_findings))
    | Pstr_eval (_, attrs) -> handle_attrs attrs si.pstr_loc
    | _ -> ());
    super.structure_item it si
  in
  let iterator =
    { super with expr; value_binding; module_binding; structure_item }
  in
  iterator.structure iterator structure

(* ------------------------------------------------------------------ *)
(* Lock-order cycle detection                                          *)
(* ------------------------------------------------------------------ *)

let transitive_acquires locks =
  let known key =
    Hashtbl.mem locks.direct key || Hashtbl.mem locks.fcalls key
  in
  (* A call site resolves to its innermost candidate that names a
     scanned function; external calls resolve to nothing. *)
  let resolve cands = List.find_opt known cands in
  let memo : (string, (string * loc_info) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let rec go visiting key =
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
        if List.mem key visiting then []
        else begin
          let direct =
            match Hashtbl.find_opt locks.direct key with
            | Some r -> !r
            | None -> []
          in
          let callees =
            match Hashtbl.find_opt locks.fcalls key with
            | Some r -> !r
            | None -> []
          in
          let all =
            List.fold_left
              (fun acc cands ->
                match resolve cands with
                | Some callee -> go (key :: visiting) callee @ acc
                | None -> acc)
              direct callees
          in
          (* Dedupe by class, keep the first location seen. *)
          let seen = Hashtbl.create 8 in
          let all =
            List.filter
              (fun (cls, _) ->
                if Hashtbl.mem seen cls then false
                else begin
                  Hashtbl.add seen cls ();
                  true
                end)
              all
          in
          if visiting = [] then Hashtbl.replace memo key all;
          all
        end
  in
  fun cands -> match resolve cands with Some key -> go [] key | None -> []

let lock_order_findings locks =
  let acquires = transitive_acquires locks in
  (* Edge set: held -> acquired, from direct nesting plus calls made
     while holding a lock. *)
  let edges : (string * string, loc_info) Hashtbl.t = Hashtbl.create 32 in
  let add_edge src dst li =
    match Hashtbl.find_opt edges (src, dst) with
    | Some prev
      when (prev.l_file, prev.l_line, prev.l_col)
           <= (li.l_file, li.l_line, li.l_col) -> ()
    | _ -> Hashtbl.replace edges (src, dst) li
  in
  List.iter (fun (src, dst, li) -> add_edge src dst li) !(locks.nested);
  List.iter
    (fun (src, cands, li) ->
      List.iter (fun (dst, _) -> add_edge src dst li) (acquires cands))
    !(locks.pending);
  let succs n =
    Hashtbl.fold
      (fun (a, b) _ acc -> if a = n then b :: acc else acc)
      edges []
    |> List.sort compare
  in
  (* Shortest path from [src] to [dst] over the edge set, as a node
     list including both ends; BFS keeps the report minimal. *)
  let path_between src dst =
    let parent = Hashtbl.create 16 in
    let queue = Queue.create () in
    Queue.add src queue;
    Hashtbl.replace parent src src;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let n = Queue.pop queue in
      List.iter
        (fun s ->
          if not (Hashtbl.mem parent s) then begin
            Hashtbl.replace parent s n;
            if s = dst then found := true else Queue.add s queue
          end)
        (succs n)
    done;
    if not (Hashtbl.mem parent dst) then None
    else begin
      let rec build acc n =
        if n = src then n :: acc else build (n :: acc) (Hashtbl.find parent n)
      in
      Some (build [] dst)
    end
  in
  (* An edge a->b is part of a cycle iff b reaches a. *)
  Hashtbl.fold
    (fun (a, b) li acc ->
      let back =
        if a = b then Some [ b ] else path_between b a
      in
      match back with
      | None -> acc
      | Some path ->
          let cycle = a :: path @ [ b ] in
          let msg =
            Printf.sprintf
              "acquiring %s while holding %s closes a lock cycle: %s" b a
              (String.concat " -> " cycle)
          in
          mk_finding li "lock-order" msg :: acc)
    edges []

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

type root = { root_path : string; root_rules : string list option }

let root ?only root_path = { root_path; root_rules = only }

let list_files roots =
  let acc = ref [] in
  let rec walk rules path =
    if Sys.is_directory path then
      Array.iter
        (fun entry ->
          (* [lint_fixtures] holds deliberately-bad corpora for the
             linter's own tests; it is only scanned when a root points
             inside it explicitly (as the golden tests do). *)
          if
            entry <> "_build" && entry <> "lint_fixtures"
            && not (String.length entry > 0 && entry.[0] = '.')
          then walk rules (Filename.concat path entry))
        (Sys.readdir path)
    else
      match Filename.extension path with
      | ".ml" | ".mli" -> acc := (path, rules) :: !acc
      | _ -> ()
  in
  List.iter
    (fun r -> if Sys.file_exists r.root_path then walk r.root_rules r.root_path)
    roots;
  (* First root wins when roots overlap. *)
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (p, _) ->
      if Hashtbl.mem seen p then false
      else begin
        Hashtbl.add seen p ();
        true
      end)
    (List.rev !acc)
  |> List.sort compare

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let parse_findings path msg =
  { i_f = { f_file = path; f_line = 1; f_col = 0; f_rule = "parse"; f_msg = msg };
    i_cnum = 0 }

let run ?rules ?(typed = false) ?cmt_roots ~roots () =
  let files = list_files roots in
  let root_rules : (string, string list option) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter (fun (p, rs) -> Hashtbl.replace root_rules p rs) files;
  let files = List.map fst files in
  let locks = lock_acc_create () in
  let findings = ref [] in
  let allows : (string, allow list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun path ->
      let pass = { p_findings = ref []; p_allows = ref [] } in
      (match read_file path with
      | exception Sys_error msg ->
          pass.p_findings := [ parse_findings path msg ]
      | content -> (
          let lexbuf = Lexing.from_string content in
          Lexing.set_filename lexbuf path;
          try
            if Filename.extension path = ".ml" then
              scan_structure ~path ~locks (Parse.implementation lexbuf) pass
            else ignore (Parse.interface lexbuf)
          with exn ->
            let msg =
              match Location.error_of_exn exn with
              | Some (`Ok err) ->
                  Format.asprintf "%a" Location.print_report err
              | _ -> Printexc.to_string exn
            in
            pass.p_findings :=
              [ parse_findings path ("syntax error: " ^ msg) ]))
      ;
      findings := !(pass.p_findings) @ !findings;
      Hashtbl.replace allows path !(pass.p_allows))
    files;
  (* mli-coverage: every lib .ml needs its sibling .mli in the scan. *)
  let file_set = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace file_set f ()) files;
  List.iter
    (fun path ->
      match context path with
      | Lib _
        when Filename.extension path = ".ml"
             && not (Hashtbl.mem file_set (path ^ "i")) ->
          findings :=
            { i_f =
                { f_file = path;
                  f_line = 1;
                  f_col = 0;
                  f_rule = "mli-coverage";
                  f_msg =
                    Printf.sprintf "lib module %s has no interface (%s)"
                      (module_base path)
                      (Filename.basename path ^ "i") };
              i_cnum = 0 }
            :: !findings
      | _ -> ())
    files;
  (* lock-order over the whole tree. *)
  findings :=
    List.filter_map
      (fun f ->
        if rule_applies "lock-order" f.i_f.f_file then Some f else None)
      (lock_order_findings locks)
    @ !findings;
  (* Typed pass: load the cmts dune emitted for the scanned sources,
     collect escape/lock facts, infer protection contracts. *)
  if typed then begin
    let sources =
      List.filter (fun p -> Filename.extension p = ".ml") files
    in
    let croots =
      match cmt_roots with
      | Some r -> r
      | None -> List.map (fun r -> r.root_path) roots
    in
    let units = Cmt_load.load ~sources (Cmt_load.find_cmts croots) in
    (* Bench and test drivers are single-threaded harnesses: letting
       their raw, lock-free calls into lib feed the must-lockset
       intersection would dissolve every protection contract they
       exercise. Only lib and bin code witnesses concurrency. *)
    let units =
      List.filter
        (fun u ->
          match context u.Cmt_load.u_source with
          | Lib _ | Bin -> true
          | Bench | Test | Other -> false)
        units
    in
    let facts =
      List.map
        (fun u -> Escape.collect ~path:u.Cmt_load.u_source u.Cmt_load.u_structure)
        units
    in
    List.iter
      (fun (tf : Lockset.finding) ->
        let s = tf.Lockset.f_site in
        if rule_applies tf.Lockset.f_rule s.Escape.s_file then
          findings :=
            { i_f =
                { f_file = s.Escape.s_file;
                  f_line = s.Escape.s_line;
                  f_col = s.Escape.s_col;
                  f_rule = tf.Lockset.f_rule;
                  f_msg = tf.Lockset.f_msg };
              i_cnum = s.Escape.s_cnum }
            :: !findings)
      (Lockset.analyze facts)
  end;
  (* Restrict to the requested rules (lint-allow/parse always report),
     then to each file's root restriction. *)
  let findings =
    match rules with
    | None -> !findings
    | Some keep ->
        List.filter
          (fun f ->
            List.mem f.i_f.f_rule keep
            || f.i_f.f_rule = "lint-allow"
            || f.i_f.f_rule = "parse")
          !findings
  in
  let findings =
    List.filter
      (fun f ->
        match Hashtbl.find_opt root_rules f.i_f.f_file with
        | Some (Some keep) ->
            List.mem f.i_f.f_rule keep
            || f.i_f.f_rule = "lint-allow"
            || f.i_f.f_rule = "parse"
        | Some None | None -> true)
      findings
  in
  (* Suppression: a finding dies only under an allow range for its own
     rule in its own file. *)
  let suppressed f =
    match Hashtbl.find_opt allows f.i_f.f_file with
    | None -> false
    | Some ranges ->
        List.exists
          (fun a ->
            a.a_rule = f.i_f.f_rule
            && a.a_start <= f.i_cnum
            && f.i_cnum <= a.a_end)
          ranges
  in
  List.filter (fun f -> not (suppressed f)) findings
  |> List.map (fun f -> f.i_f)
  |> List.sort_uniq compare

let to_plain f =
  Printf.sprintf "%s:%d:%d: [%s] %s" f.f_file f.f_line f.f_col f.f_rule f.f_msg

let to_github f =
  (* Workflow-command annotation; the message must stay single-line. *)
  let msg =
    String.map (function '\n' | '\r' -> ' ' | c -> c) (f.f_rule ^ ": " ^ f.f_msg)
  in
  Printf.sprintf "::error file=%s,line=%d,col=%d::%s" f.f_file f.f_line
    (f.f_col + 1) msg
