(* See lockset.mli. *)

open Escape

type finding = {
  f_rule : string;
  f_site : Escape.site;
  f_other : Escape.site option;
  f_msg : string;
}

let hot_locks = [ "table.t.state"; "table.t.writer_lock"; "block_cache.t.mutex" ]

let union a b = List.sort_uniq compare (a @ b)

let inter a b = List.filter (fun x -> List.mem x b) a

let site_cmp a b =
  compare (a.s_file, a.s_line, a.s_col) (b.s_file, b.s_line, b.s_col)

let module_of_class cls =
  match String.index_opt cls '.' with
  | Some i -> String.sub cls 0 i
  | None -> cls

(* An access with function-level context folded in. *)
type eff = {
  e_kind : kind;
  e_sort : sort;
  e_counter : bool;
  e_locks : string list;
  e_crossing : bool;
  e_owned : bool;
  e_site : site;
}

let analyze facts_list =
  (* ---- global tables ------------------------------------------------ *)
  let fns : (string, fn_info) Hashtbl.t = Hashtbl.create 256 in
  let defs : (string * int * int, string) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun fa ->
      let b = Filename.remove_extension (Filename.basename fa.fa_file) in
      Hashtbl.iter
        (fun (l, c) key ->
          if not (Hashtbl.mem defs (b, l, c)) then Hashtbl.add defs (b, l, c) key)
        fa.fa_defs;
      List.iter
        (fun f ->
          if not (Hashtbl.mem fns f.fn_key) then Hashtbl.add fns f.fn_key f)
        fa.fa_fns)
    facts_list;
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) fns [] |> List.sort compare
  in
  let resolve ce =
    match Hashtbl.find_opt defs (ce.ce_base, ce.ce_line, ce.ce_col) with
    | Some k -> k
    | None -> ce.ce_base ^ "." ^ ce.ce_name
  in
  (* In-edges per callee: (caller key, locks at site, crossing, value
     escape). *)
  let in_edges : (string, string * string list * bool * bool) Hashtbl.t =
    Hashtbl.create 256
  in
  List.iter
    (fun key ->
      let f = Hashtbl.find fns key in
      List.iter
        (fun cl ->
          Hashtbl.add in_edges (resolve cl.cl_callee)
            (key, cl.cl_locks, cl.cl_crossing, cl.cl_value))
        f.fn_calls)
    keys;
  (* ---- crossing fixpoint (module-local propagation) ----------------- *)
  let crossing : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let mark k = if not (Hashtbl.mem crossing k) then (Hashtbl.add crossing k (); true) else false in
  List.iter
    (fun key ->
      let f = Hashtbl.find fns key in
      if f.fn_root_crossing then ignore (mark key);
      List.iter
        (fun cl -> if cl.cl_crossing then ignore (mark (resolve cl.cl_callee)))
        f.fn_calls)
    keys;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun key ->
        if Hashtbl.mem crossing key then
          let f = Hashtbl.find fns key in
          List.iter
            (fun cl ->
              let callee = resolve cl.cl_callee in
              if cl.cl_callee.ce_base = f.fn_base && Hashtbl.mem fns callee
              then if mark callee then changed := true)
            f.fn_calls)
      keys
  done;
  let is_crossing k = Hashtbl.mem crossing k in
  (* ---- ambient must-locksets ---------------------------------------- *)
  (* None = top (no call site seen yet on this iteration path). *)
  let must : (string, string list option) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun key ->
      Hashtbl.replace must key
        (if Hashtbl.mem in_edges key then None else Some []))
    keys;
  let pinned : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let iterate () =
    let rounds = ref 0 in
    let changed = ref true in
    while !changed && !rounds < 50 do
      changed := false;
      incr rounds;
      List.iter
        (fun key ->
          if Hashtbl.mem in_edges key && not (Hashtbl.mem pinned key) then begin
            let edges = Hashtbl.find_all in_edges key in
            let next =
              List.fold_left
                (fun acc (caller, locks, crossing, value) ->
                  let contrib =
                    (* A value escape means unknown future call sites:
                       no ambient locks at all.  A crossing edge runs
                       the callee on another domain: the caller's
                       ambient locks do not hold there. *)
                    if value then Some []
                    else if crossing then Some locks
                    else
                      match Hashtbl.find_opt must caller with
                      | Some (Some m) -> Some (union m locks)
                      | Some None | None -> None
                  in
                  match (acc, contrib) with
                  | None, c -> c
                  | a, None -> a
                  | Some a, Some c -> Some (inter a c))
                None edges
            in
            if next <> Hashtbl.find must key then begin
              Hashtbl.replace must key next;
              changed := true
            end
          end)
        keys
    done
  in
  iterate ();
  (* Functions still at top after the fixpoint are only reachable from
     top — recursive closures returned as values, entry points of
     escaping call cycles. Their real call sites are unknown, so ground
     them at "no ambient locks" and let the rest re-shrink. *)
  let residual =
    List.filter (fun k -> Hashtbl.find_opt must k = Some None) keys
  in
  if residual <> [] then begin
    List.iter
      (fun k ->
        Hashtbl.replace must k (Some []);
        Hashtbl.replace pinned k ())
      residual;
    iterate ()
  end;
  let must_of key =
    match Hashtbl.find_opt must key with Some (Some m) -> m | _ -> []
  in
  (* ---- per-cell effective accesses ---------------------------------- *)
  let cells : (string, eff) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun key ->
      let f = Hashtbl.find fns key in
      let fcross = is_crossing key in
      let amb = must_of key in
      List.iter
        (fun ac ->
          if not (String.length ac.ac_cell >= 5 && String.sub ac.ac_cell 0 5 = "anon.")
          then
            Hashtbl.add cells ac.ac_cell
              { e_kind = ac.ac_kind;
                e_sort = ac.ac_sort;
                e_counter = ac.ac_counter;
                e_locks =
                  (if ac.ac_crossing then ac.ac_locks
                   else union ac.ac_locks amb);
                e_crossing = ac.ac_crossing || fcross;
                e_owned = ac.ac_owned;
                e_site = ac.ac_site })
        f.fn_accesses)
    keys;
  let cell_keys =
    Hashtbl.fold (fun k _ acc -> if List.mem k acc then acc else k :: acc) cells []
    |> List.sort compare
  in
  let findings = ref [] in
  let emit rule site other msg =
    findings := { f_rule = rule; f_site = site; f_other = other; f_msg = msg } :: !findings
  in
  let show_locks = function
    | [] -> "no lock"
    | ls -> "locks {" ^ String.concat ", " ls ^ "}"
  in
  let show_kind = function Read -> "read" | Write -> "write" in
  let pp_site s = Printf.sprintf "%s:%d" s.s_file s.s_line in
  List.iter
    (fun cell ->
      let all =
        Hashtbl.find_all cells cell
        |> List.sort (fun a b -> site_cmp a.e_site b.e_site)
      in
      (* Constructor initialization of owned values is not an access.
         Owned refs/containers come back when the cell is accessed from
         both sides of a domain boundary — the local-allocated ref that
         escaped into a crossing closure.  A cell whose accesses are
         all inside one crossing function is per-task state, not
         shared. *)
      let non_owned = List.filter (fun e -> not e.e_owned) all in
      let owned_rc =
        List.filter (fun e -> e.e_owned && e.e_sort <> Field) all
      in
      let both_sides es =
        List.exists (fun e -> e.e_crossing) es
        && List.exists (fun e -> not e.e_crossing) es
      in
      let crossing_any =
        List.exists (fun e -> e.e_crossing) (non_owned @ owned_rc)
      in
      let acc =
        if both_sides (non_owned @ owned_rc) then non_owned @ owned_rc
        else non_owned
      in
      let acc = List.sort (fun a b -> site_cmp a.e_site b.e_site) acc in
      let writes = List.filter (fun e -> e.e_kind = Write) acc in
      if writes <> [] && List.length acc >= 2 then begin
        let common =
          match acc with
          | [] -> []
          | e :: tl -> List.fold_left (fun m e -> inter m e.e_locks) e.e_locks tl
        in
        if crossing_any && common = [] then begin
          (* Primary: a write with the fewest locks; secondary: an access
             on the other side of the domain boundary if one exists. *)
          let w =
            List.fold_left
              (fun best e ->
                if List.length e.e_locks < List.length best.e_locks then e
                else best)
              (List.hd writes) writes
          in
          let other =
            let opposite =
              List.filter
                (fun e -> e.e_crossing <> w.e_crossing && e.e_site <> w.e_site)
                acc
            in
            match (opposite, List.filter (fun e -> e.e_site <> w.e_site) acc) with
            | o :: _, _ -> Some o
            | [], o :: _ -> Some o
            | [], [] -> None
          in
          let counter_only =
            w.e_sort = Ref && List.for_all (fun e -> e.e_counter) writes
          in
          let rule = if counter_only then "atomic-discipline" else "domain-race" in
          let msg =
            match other with
            | Some o ->
                if counter_only then
                  Printf.sprintf
                    "counter `%s` is a plain ref updated across domains (%s \
                     here with %s; %s at %s with %s): make it Atomic.t"
                    cell (show_kind w.e_kind) (show_locks w.e_locks)
                    (show_kind o.e_kind) (pp_site o.e_site) (show_locks o.e_locks)
                else
                  Printf.sprintf
                    "possible data race on `%s`: %s here (%s%s) conflicts \
                     with %s at %s (%s%s); no common lock protects every \
                     access — hold one with_lock region at all sites or make \
                     the cell Atomic.t"
                    cell (show_kind w.e_kind) (show_locks w.e_locks)
                    (if w.e_crossing then ", crossing" else "")
                    (show_kind o.e_kind) (pp_site o.e_site)
                    (show_locks o.e_locks)
                    (if o.e_crossing then ", crossing" else "")
            | None ->
                Printf.sprintf
                  "possible data race on `%s`: %s from a domain-crossing \
                   closure with %s and no common lock across accesses"
                  cell (show_kind w.e_kind) (show_locks w.e_locks)
          in
          emit rule w.e_site (Option.map (fun o -> o.e_site) other) msg
        end
        else if (not crossing_any) && common = [] then begin
          (* Mixed discipline: some accesses take a lock, a write does
             not — the lock evidence says the cell is meant to be
             guarded.  Contracts are inferred module-by-module: only
             sites in the cell's own defining module count as evidence,
             so a caller that happens to hold an unrelated lock while
             poking a Binio cursor does not indict every other cursor
             user. *)
          let home = module_of_class cell in
          let local e =
            Filename.remove_extension (Filename.basename e.e_site.s_file)
            = home
          in
          let unlocked_w =
            List.filter (fun e -> e.e_locks = [] && local e) writes
          in
          let locked = List.filter (fun e -> e.e_locks <> [] && local e) acc in
          match (unlocked_w, locked) with
          | w :: _, l :: _ ->
              emit "domain-race" w.e_site (Some l.e_site)
                (Printf.sprintf
                   "mixed lock discipline on `%s`: unlocked %s here but %s at \
                    %s holds %s — either every access takes the lock or none \
                    needs it"
                   cell (show_kind w.e_kind) (show_kind l.e_kind)
                   (pp_site l.e_site) (show_locks l.e_locks))
          | _ -> ()
        end
      end)
    cell_keys;
  (* ---- blocking-under-lock ------------------------------------------ *)
  (* A lock class is a {e leaf} when the analysis never observes
     blocking work or a further lock acquisition under it. Taking a
     leaf lock from another module is benign — the wait is bounded and
     no ordering cycle can form through it — so the cross-module arm
     below only fires for non-leaf ("risky") locks. *)
  let risky : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun key ->
      let f = Hashtbl.find fns key in
      let amb = must_of key in
      List.iter
        (fun bo ->
          List.iter
            (fun c -> Hashtbl.replace risky c ())
            (union bo.bo_locks amb))
        f.fn_blocking;
      List.iter
        (fun aq ->
          List.iter
            (fun c -> if c <> aq.aq_class then Hashtbl.replace risky c ())
            (union aq.aq_locks amb))
        f.fn_acquires)
    keys;
  List.iter
    (fun key ->
      let f = Hashtbl.find fns key in
      let amb = must_of key in
      List.iter
        (fun bo ->
          let eff = union bo.bo_locks amb in
          match List.filter (fun h -> List.mem h eff) hot_locks with
          | [] -> ()
          | h :: _ ->
              emit "blocking-under-lock" bo.bo_site None
                (Printf.sprintf
                   "%s while holding hot lock `%s`%s: hoist the blocking call \
                    out of the with_lock region"
                   bo.bo_what h
                   (if List.mem h bo.bo_locks then ""
                    else " (held by every caller)")))
        f.fn_blocking;
      List.iter
        (fun aq ->
          if aq.aq_base <> "anon" && Hashtbl.mem risky aq.aq_class then
            let eff = union aq.aq_locks amb in
            match
              List.filter
                (fun h ->
                  List.mem h eff && h <> aq.aq_class
                  && module_of_class h <> aq.aq_base)
                hot_locks
            with
            | [] -> ()
            | h :: _ ->
                emit "blocking-under-lock" aq.aq_site None
                  (Printf.sprintf
                     "acquiring lock `%s` while holding hot lock `%s` crosses \
                      a module boundary — release the hot lock before taking \
                      locks of another subsystem"
                     aq.aq_class h))
        f.fn_acquires)
    keys;
  List.sort
    (fun a b ->
      compare
        (a.f_site.s_file, a.f_site.s_line, a.f_site.s_col, a.f_rule, a.f_msg)
        (b.f_site.s_file, b.f_site.s_line, b.f_site.s_col, b.f_rule, b.f_msg))
    !findings
