open Littletable

let drain it =
  let rec go acc =
    match Btree.next it (fun k v -> (k, v)) with
    | None -> List.rev acc
    | Some kv -> go (kv :: acc)
  in
  go []

let keys it = List.map fst (drain it)

(* A point lookup is a seek: the first binding at or above [k]. *)
let find k t =
  match Btree.next (Btree.iter_asc ~lo:k t) (fun k' v -> (k', v)) with
  | Some (k', v) when String.equal k k' -> Some v
  | _ -> None

let mem k t = Option.is_some (find k t)

(* A frozen tree of [kvs], first binding of a key kept. *)
let build kvs =
  let w = Btree.writer () in
  List.iter (fun (k, v) -> ignore (Btree.add w k v)) kvs;
  Btree.freeze w

let test_basic () =
  let t = build [ ("b", 2); ("a", 1); ("c", 3) ] in
  Alcotest.(check int) "length" 3 (Btree.length t);
  Alcotest.(check bool) "find" true (find "b" t = Some 2);
  Alcotest.(check bool) "find missing" true (find "x" t = None);
  Alcotest.(check bool) "mem" true (mem "c" t);
  Alcotest.(check bool) "min" true (Btree.min_key t = Some "a");
  Alcotest.(check bool) "max" true (Btree.max_key t = Some "c");
  Alcotest.(check (list string)) "asc" [ "a"; "b"; "c" ] (keys (Btree.iter_asc t));
  Alcotest.(check (list string)) "desc" [ "c"; "b"; "a" ] (keys (Btree.iter_desc t))

let test_empty () =
  let t = build [] in
  Alcotest.(check int) "length" 0 (Btree.length t);
  Alcotest.(check bool) "min" true (Btree.min_key t = None);
  Alcotest.(check bool) "invariant" true (Btree.invariant_ok t);
  Alcotest.(check (list string)) "iter" [] (keys (Btree.iter_asc t));
  Alcotest.(check (list string)) "iter desc" [] (keys (Btree.iter_desc t))

let test_duplicate_rejected () =
  let w = Btree.writer () in
  Alcotest.(check bool) "first" true (Btree.add w "k" 1);
  Alcotest.(check bool) "duplicate refused" false (Btree.add w "k" 2);
  Alcotest.(check int) "length" 1 (Btree.writer_length w);
  Alcotest.(check bool) "value untouched" true
    (find "k" (Btree.freeze w) = Some 1)

let test_persistence () =
  let w = Btree.writer () in
  ignore (Btree.add w "a" 1);
  let t1 = Btree.freeze w in
  ignore (Btree.add w "b" 2);
  let t2 = Btree.freeze w in
  (* The old root still sees only its own contents. *)
  Alcotest.(check int) "old length" 1 (Btree.length t1);
  Alcotest.(check bool) "old misses b" false (mem "b" t1);
  Alcotest.(check int) "new length" 2 (Btree.length t2)

let test_range_bounds () =
  let t = build (List.init 10 (fun i -> (Printf.sprintf "k%02d" i, i))) in
  Alcotest.(check (list string)) "lo only" [ "k07"; "k08"; "k09" ]
    (keys (Btree.iter_asc ~lo:"k07" t));
  Alcotest.(check (list string)) "hi only" [ "k00"; "k01" ]
    (keys (Btree.iter_asc ~hi:"k02" t));
  Alcotest.(check (list string)) "both" [ "k03"; "k04" ]
    (keys (Btree.iter_asc ~lo:"k03" ~hi:"k05" t));
  Alcotest.(check (list string)) "desc both" [ "k04"; "k03" ]
    (keys (Btree.iter_desc ~lo:"k03" ~hi:"k05" t));
  Alcotest.(check (list string)) "empty range" []
    (keys (Btree.iter_asc ~lo:"k05" ~hi:"k05" t));
  Alcotest.(check (list string)) "lo between keys" [ "k04" ]
    (keys (Btree.iter_asc ~lo:"k035" ~hi:"k05" t))

let test_fold () =
  let t = build [ ("a", 1); ("b", 2); ("c", 4) ] in
  Alcotest.(check int) "sum" 7 (Btree.fold (fun _ v acc -> acc + v) t 0)

let kv_list_gen =
  QCheck.(list_of_size Gen.(int_bound 400)
            (pair (string_gen_of_size Gen.(int_bound 6) Gen.printable) small_int))

let prop_model_vs_map =
  QCheck.Test.make ~name:"avl behaves like Map" ~count:300 kv_list_gen
    (fun kvs ->
      let module M = Map.Make (String) in
      let w = Btree.writer () and map = ref M.empty in
      List.iter
        (fun (k, v) ->
          if Btree.add w k v then begin
            if M.mem k !map then raise Exit;
            map := M.add k v !map
          end
          else if not (M.mem k !map) then raise Exit)
        kvs;
      let t = Btree.freeze w in
      Btree.invariant_ok t
      && Btree.length t = M.cardinal !map
      && drain (Btree.iter_asc t) = M.bindings !map
      && drain (Btree.iter_desc t) = List.rev (M.bindings !map)
      && M.for_all (fun k v -> find k t = Some v) !map)

(* Ranges over trees several levels deep: random keys and an ascending
   run of [run] keys between them. *)
let prop_range_vs_filter =
  QCheck.Test.make ~name:"avl range = filtered bindings" ~count:300
    QCheck.(
      quad kv_list_gen (int_bound 3000)
        (string_gen_of_size Gen.(int_bound 6) Gen.printable)
        (string_gen_of_size Gen.(int_bound 6) Gen.printable))
    (fun (kvs, run, lo, hi) ->
      let t =
        build (kvs @ List.init run (fun i -> (Printf.sprintf "m%05d" i, i)))
      in
      let all = drain (Btree.iter_asc t) in
      let expect =
        List.filter (fun (k, _) -> String.compare k lo >= 0 && String.compare k hi < 0) all
      in
      Btree.invariant_ok t
      && drain (Btree.iter_asc ~lo ~hi t) = expect
      && drain (Btree.iter_desc ~lo ~hi t) = List.rev expect
      && drain (Btree.iter_asc ~lo t)
         = List.filter (fun (k, _) -> String.compare k lo >= 0) all
      && drain (Btree.iter_desc ~hi t)
         = List.rev (List.filter (fun (k, _) -> String.compare k hi < 0) all))

let test_balanced_under_sequential_insert () =
  (* Sorted insertion: every insert appends to the rightmost leaf. *)
  let t = build (List.init 10_000 (fun i -> (Printf.sprintf "%06d" i, i))) in
  Alcotest.(check bool) "invariant" true (Btree.invariant_ok t);
  Alcotest.(check int) "length" 10_000 (Btree.length t);
  Alcotest.(check (list string)) "ends" [ "000000"; "009999" ]
    (List.filter_map Fun.id [ Btree.min_key t; Btree.max_key t ])

(* Epoch-owned inserts against a persistent model, [Map.Make (String)]:
   under any interleaving of inserts, duplicates and snapshots (an
   epoch bump each) the tree must keep the model's bindings, refuse
   exactly the keys the model holds, and every snapshot must still read
   back the model as it was when the snapshot was taken. Ascending runs
   of keys spread between the ones already in (a poll cycle's rows, one
   key column ahead of the last cycle's) take the finger and split
   leaves and inner nodes next to their separators. *)
type op =
  | Put of string
  | Run of { prefix : string; from : int; len : int; stride : int }
  | Again of int  (** re-insert the n-th key put so far *)
  | Snap

let ops_gen =
  let open QCheck.Gen in
  let key = string_size ~gen:printable (int_bound 4) in
  let op =
    frequency
      [ (6, map (fun k -> Put k) key);
        ( 2,
          map4
            (fun prefix from len stride -> Run { prefix; from; len; stride })
            (string_size ~gen:(oneofl [ 'a'; 'b'; 'm' ]) (int_bound 1))
            (int_bound 50) (int_bound 400) (int_range 1 3) );
        (2, map (fun n -> Again n) nat);
        (1, return Snap) ]
  in
  list_size (int_bound 60) op

let print_op = function
  | Put k -> Printf.sprintf "put %S" k
  | Run { prefix; from; len; stride } ->
      Printf.sprintf "run %S from %d len %d stride %d" prefix from len stride
  | Again n -> Printf.sprintf "again %d" n
  | Snap -> "snap"

let prop_owned_vs_persistent =
  QCheck.Test.make ~name:"epoch-owned inserts match persistent inserts"
    ~count:200
    (QCheck.make ~print:QCheck.Print.(list print_op) ops_gen)
    (fun ops ->
      let module M = Map.Make (String) in
      let w = Btree.writer () and model = ref M.empty in
      let snaps = ref [] and i = ref 0 and put = ref [||] and nput = ref 0 in
      let insert k =
        incr i;
        let fresh = not (M.mem k !model) in
        if Btree.add w k !i <> fresh then raise Exit;
        if fresh then begin
          model := M.add k !i !model;
          if !nput = Array.length !put then
            put := Array.append !put (Array.make (max 16 !nput) k);
          !put.(!nput) <- k;
          incr nput
        end
      in
      List.iter
        (function
          | Snap -> snaps := (Btree.freeze w, M.bindings !model) :: !snaps
          | Put k -> insert k
          | Run { prefix; from; len; stride } ->
              for j = 0 to len - 1 do
                insert (Printf.sprintf "%s%05d~" prefix (from + (j * stride)))
              done
          | Again n -> if !nput > 0 then insert !put.(n mod !nput))
        ops;
      let same t bindings =
        Btree.invariant_ok t
        && drain (Btree.iter_asc t) = bindings
        && drain (Btree.iter_desc t) = List.rev bindings
        && Btree.length t = List.length bindings
        && List.for_all (fun (k, _) -> mem k t) bindings
      in
      Btree.writer_length w = M.cardinal !model
      && M.for_all (fun k _ -> Btree.writer_mem w k) !model
      && same (Btree.freeze w) (M.bindings !model)
      && List.for_all (fun (t, bindings) -> same t bindings) !snaps)

(* The memtable half of the epoch contract: a snapshot reads back the
   same rows after any number of inserts, in this thread and in a pool
   worker domain that walks it while the owner keeps inserting between
   and around the snapshot's keys. *)
let test_memtable_snapshot_unchanged () =
  let mt =
    Memtable.create ~id:1
      ~period:(Period.bin ~now:Support.ts0 Support.ts0)
      ~created_at:Support.ts0
  in
  let key i = Printf.sprintf "k%06d" i in
  let put i =
    match Memtable.insert mt ~key:(key i) ~ts:Support.ts0 (string_of_int i) with
    | `Ok -> ()
    | `Duplicate -> Alcotest.fail "duplicate"
  in
  for i = 0 to 999 do put (2 * i) done;
  let snap = Memtable.snapshot mt in
  let expect = drain (Btree.iter_asc snap) in
  let pool = Lt_exec.Pool.shared ~domains:1 in
  let seen = Atomic.make None and go = Atomic.make false in
  Lt_exec.Pool.submit_task pool (fun () ->
      while not (Atomic.get go) do Domain.cpu_relax () done;
      Atomic.set seen (Some (drain (Btree.iter_asc snap))));
  (* Odd keys land between the snapshot's, so an insert that wrote a
     node the snapshot reaches would show in its walk. *)
  for i = 0 to 499 do put ((2 * i) + 1) done;
  Atomic.set go true;
  for i = 500 to 999 do put ((2 * i) + 1) done;
  let rec wait () =
    match Atomic.get seen with Some l -> l | None -> Domain.cpu_relax (); wait ()
  in
  let from_worker = wait () in
  Support.check_int "snapshot rows" 1000 (List.length expect);
  Alcotest.(check bool) "snapshot unchanged here" true
    (drain (Btree.iter_asc snap) = expect);
  Alcotest.(check bool) "snapshot unchanged in a worker" true
    (from_worker = expect);
  Alcotest.(check bool) "snapshot well formed" true (Btree.invariant_ok snap);
  Support.check_int "memtable holds every row" 2000 (Memtable.row_count mt)

let suite =
  [
    ("basic ops", `Quick, test_basic);
    ("empty tree", `Quick, test_empty);
    ("duplicate rejected", `Quick, test_duplicate_rejected);
    ("persistence (snapshots)", `Quick, test_persistence);
    ("range bounds", `Quick, test_range_bounds);
    ("fold", `Quick, test_fold);
    ("balanced under sorted insert", `Quick, test_balanced_under_sequential_insert);
    Support.qcheck prop_model_vs_map;
    Support.qcheck prop_range_vs_filter;
    Support.qcheck prop_owned_vs_persistent;
    ("memtable snapshot unchanged by later inserts", `Quick,
      test_memtable_snapshot_unchanged);
  ]
