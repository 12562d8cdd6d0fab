(* Flush closures from insert-sequence spans (§3.4.3). Each case is an
   insert order: [ins w [a; b; ...]] lands one row in memtable [a], then
   one in [b], and so on. Every closure is also taken on the edge graph
   the paper describes ([Flush_graph_ref]), and the two must agree. *)

open Littletable

type world = {
  mutable seq : int;
  mts : (int, unit Memtable.t) Hashtbl.t;  (** queued memtables by id *)
  graph : Flush_graph_ref.t;
}

let world () = { seq = 0; mts = Hashtbl.create 8; graph = Flush_graph_ref.create () }

let memtable w id =
  match Hashtbl.find_opt w.mts id with
  | Some m -> m
  | None ->
      let m = Memtable.create ~id ~period:(Period.bin ~now:0L 0L) ~created_at:0L in
      Hashtbl.replace w.mts id m;
      m

let ins w ids =
  List.iter
    (fun id ->
      w.seq <- w.seq + 1;
      Memtable.stamp (memtable w id) w.seq;
      Flush_graph_ref.insert w.graph id)
    ids

(* [id]'s closure by spans and by the reference graph, ascending. *)
let closures w id =
  let queued = Hashtbl.fold (fun _ m acc -> m :: acc) w.mts [] in
  ( List.sort compare (List.map Memtable.id (Memtable.closure (memtable w id) queued)),
    Flush_graph_ref.closure w.graph id )

let closure w id =
  let spans, edges = closures w id in
  Alcotest.(check (list int)) "span closure = edge closure" edges spans;
  spans

(* Flush [id]'s closure: its members leave the queue and the graph. *)
let flush w id =
  let members = closure w id in
  List.iter (Hashtbl.remove w.mts) members;
  Flush_graph_ref.remove w.graph members

let ints = Alcotest.(list int)

let test_closure_simple () =
  let w = world () in
  ins w [ 1; 2; 3 ];
  Alcotest.check ints "closure of 3" [ 1; 2; 3 ] (closure w 3);
  Alcotest.check ints "closure of 2" [ 1; 2 ] (closure w 2);
  Alcotest.check ints "closure of 1" [ 1 ] (closure w 1)

let test_closure_no_deps () =
  let w = world () in
  ins w [ 7 ];
  Alcotest.check ints "lone memtable" [ 7 ] (closure w 7)

let test_self_edge_ignored () =
  let w = world () in
  ins w [ 5; 5; 5 ];
  Alcotest.check ints "own rows add no dependency" [ 5 ] (closure w 5)

let test_cycle () =
  (* Inserts alternating between two memtables: they must flush
     together (§3.4.3). *)
  let w = world () in
  ins w [ 1; 2; 1 ];
  Alcotest.check ints "cycle of 1" [ 1; 2 ] (closure w 1);
  Alcotest.check ints "cycle of 2" [ 1; 2 ] (closure w 2)

let test_diamond () =
  (* Two paths into 4: 1 -> 2 -> 4 and 1 -> 3 -> 4. *)
  let w = world () in
  ins w [ 1; 2; 4; 1; 3; 4 ];
  Alcotest.check ints "diamond" [ 1; 2; 3; 4 ] (closure w 4)

let test_remove () =
  let w = world () in
  ins w [ 1; 2; 3 ];
  flush w 2;
  Alcotest.check ints "flushed members leave" [ 3 ] (closure w 3);
  flush w 3;
  Alcotest.(check int) "queue emptied" 0 (Hashtbl.length w.mts)

let test_remove_preserves_rest () =
  (* Two runs of inserts; flushing the first leaves the second's order. *)
  let w = world () in
  ins w [ 1; 2; 3; 4 ];
  flush w 2;
  Alcotest.check ints "other run intact" [ 3; 4 ] (closure w 4)

(* Random interleavings over four filling slots: an insert lands in its
   slot's memtable, and a flush takes a slot memtable's closure and drops
   its members, whose slots then start new memtables. After every step
   the span closure of each queued memtable equals the edge graph's, and
   a closure holds the closure of each of its members. *)
let prop_closure_is_transitive =
  QCheck.Test.make ~name:"closure transitivity" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_bound 9) (int_bound 3)))
    (fun steps ->
      let w = world () in
      let slot = Array.init 4 (fun i -> i) and next_id = ref 4 in
      let agree () =
        Hashtbl.fold
          (fun id _ ok ->
            ok
            &&
            let spans, edges = closures w id in
            spans = edges
            && List.for_all
                 (fun b -> List.for_all (fun x -> List.mem x spans) (fst (closures w b)))
                 spans)
          w.mts true
      in
      List.for_all
        (fun (op, s) ->
          (if op < 7 then ins w [ slot.(s) ]
           else if Hashtbl.mem w.mts slot.(s) then begin
             let members = fst (closures w slot.(s)) in
             List.iter (Hashtbl.remove w.mts) members;
             Flush_graph_ref.remove w.graph members;
             Array.iteri
               (fun i id ->
                 if List.mem id members then begin
                   slot.(i) <- !next_id;
                   incr next_id
                 end)
               slot
           end);
          agree ())
        steps)

let suite =
  [
    ("closure: chain", `Quick, test_closure_simple);
    ("closure: lone node", `Quick, test_closure_no_deps);
    ("self edge ignored", `Quick, test_self_edge_ignored);
    ("cycle flushes together", `Quick, test_cycle);
    ("diamond", `Quick, test_diamond);
    ("remove", `Quick, test_remove);
    ("remove preserves rest", `Quick, test_remove_preserves_rest);
    Support.qcheck prop_closure_is_transitive;
  ]
