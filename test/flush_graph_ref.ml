(* The flush-dependency graph of §3.4.3, as the engine kept it before
   memtables recorded spans of insert sequence numbers: an insert into
   tablet [id] right after one into [prev] <> [id] adds the edge
   [prev] -> [id] ([prev] must flush first), and a flush drops its
   members' nodes and edges. It is the reference {!Memtable.closure}
   must match. *)

module S = Set.Make (Int)

(* [deps] maps a tablet to the tablets with an edge into it. *)
type t = { mutable last : int option; deps : (int, S.t) Hashtbl.t }

let create () = { last = None; deps = Hashtbl.create 16 }

let preds g id = Option.value ~default:S.empty (Hashtbl.find_opt g.deps id)

let insert g id =
  (match g.last with
  | Some prev when prev <> id -> Hashtbl.replace g.deps id (S.add prev (preds g id))
  | _ -> ());
  g.last <- Some id

(* [id] and every tablet with a path to it, ascending. *)
let closure g id =
  let rec visit id seen =
    S.fold
      (fun p seen -> if S.mem p seen then seen else visit p (S.add p seen))
      (preds g id) seen
  in
  S.elements (visit id (S.singleton id))

let remove g ids =
  let gone = S.of_list ids in
  List.iter (Hashtbl.remove g.deps) ids;
  Hashtbl.filter_map_inplace (fun _ p -> Some (S.diff p gone)) g.deps;
  match g.last with
  | Some l when S.mem l gone -> g.last <- None
  | _ -> ()
