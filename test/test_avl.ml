open Littletable

let drain it =
  let rec go acc =
    match Avl.next it (fun k v -> (k, v)) with
    | None -> List.rev acc
    | Some kv -> go (kv :: acc)
  in
  go []

let keys it = List.map fst (drain it)

let build kvs =
  List.fold_left
    (fun t (k, v) ->
      match Avl.insert k v t with `Ok t -> t | `Duplicate -> t)
    Avl.empty kvs

let test_basic () =
  let t = build [ ("b", 2); ("a", 1); ("c", 3) ] in
  Alcotest.(check int) "length" 3 (Avl.length t);
  Alcotest.(check bool) "find" true (Avl.find "b" t = Some 2);
  Alcotest.(check bool) "find missing" true (Avl.find "x" t = None);
  Alcotest.(check bool) "mem" true (Avl.mem "c" t);
  Alcotest.(check bool) "min" true (Avl.min_key t = Some "a");
  Alcotest.(check bool) "max" true (Avl.max_key t = Some "c");
  Alcotest.(check (list string)) "asc" [ "a"; "b"; "c" ] (keys (Avl.iter_asc t));
  Alcotest.(check (list string)) "desc" [ "c"; "b"; "a" ] (keys (Avl.iter_desc t))

let test_empty () =
  Alcotest.(check bool) "is_empty" true (Avl.is_empty Avl.empty);
  Alcotest.(check int) "length" 0 (Avl.length Avl.empty);
  Alcotest.(check bool) "min" true (Avl.min_key Avl.empty = None);
  Alcotest.(check (list string)) "iter" [] (keys (Avl.iter_asc Avl.empty))

let test_duplicate_rejected () =
  let t = build [ ("k", 1) ] in
  match Avl.insert "k" 2 t with
  | `Duplicate -> Alcotest.(check bool) "value untouched" true (Avl.find "k" t = Some 1)
  | `Ok _ -> Alcotest.fail "duplicate accepted"

let test_persistence () =
  let t1 = build [ ("a", 1) ] in
  let t2 = match Avl.insert "b" 2 t1 with `Ok t -> t | `Duplicate -> assert false in
  (* The old root still sees only its own contents. *)
  Alcotest.(check int) "old length" 1 (Avl.length t1);
  Alcotest.(check bool) "old misses b" false (Avl.mem "b" t1);
  Alcotest.(check int) "new length" 2 (Avl.length t2)

let test_range_bounds () =
  let t = build (List.init 10 (fun i -> (Printf.sprintf "k%02d" i, i))) in
  Alcotest.(check (list string)) "lo only" [ "k07"; "k08"; "k09" ]
    (keys (Avl.iter_asc ~lo:"k07" t));
  Alcotest.(check (list string)) "hi only" [ "k00"; "k01" ]
    (keys (Avl.iter_asc ~hi:"k02" t));
  Alcotest.(check (list string)) "both" [ "k03"; "k04" ]
    (keys (Avl.iter_asc ~lo:"k03" ~hi:"k05" t));
  Alcotest.(check (list string)) "desc both" [ "k04"; "k03" ]
    (keys (Avl.iter_desc ~lo:"k03" ~hi:"k05" t));
  Alcotest.(check (list string)) "empty range" []
    (keys (Avl.iter_asc ~lo:"k05" ~hi:"k05" t));
  Alcotest.(check (list string)) "lo between keys" [ "k04" ]
    (keys (Avl.iter_asc ~lo:"k035" ~hi:"k05" t))

let test_fold () =
  let t = build [ ("a", 1); ("b", 2); ("c", 4) ] in
  Alcotest.(check int) "sum" 7 (Avl.fold (fun _ v acc -> acc + v) t 0)

let kv_list_gen =
  QCheck.(list_of_size Gen.(int_bound 400)
            (pair (string_gen_of_size Gen.(int_bound 6) Gen.printable) small_int))

let prop_model_vs_map =
  QCheck.Test.make ~name:"avl behaves like Map" ~count:300 kv_list_gen
    (fun kvs ->
      let module M = Map.Make (String) in
      let avl = ref Avl.empty and map = ref M.empty in
      List.iter
        (fun (k, v) ->
          match Avl.insert k v !avl with
          | `Ok t ->
              if M.mem k !map then raise Exit;
              avl := t;
              map := M.add k v !map
          | `Duplicate -> if not (M.mem k !map) then raise Exit)
        kvs;
      Avl.invariant_ok !avl
      && Avl.length !avl = M.cardinal !map
      && drain (Avl.iter_asc !avl) = M.bindings !map
      && drain (Avl.iter_desc !avl) = List.rev (M.bindings !map))

let prop_range_vs_filter =
  QCheck.Test.make ~name:"avl range = filtered bindings" ~count:300
    QCheck.(triple kv_list_gen
              (string_gen_of_size Gen.(int_bound 6) Gen.printable)
              (string_gen_of_size Gen.(int_bound 6) Gen.printable))
    (fun (kvs, lo, hi) ->
      let t = build kvs in
      let all = drain (Avl.iter_asc t) in
      let expect =
        List.filter (fun (k, _) -> String.compare k lo >= 0 && String.compare k hi < 0) all
      in
      drain (Avl.iter_asc ~lo ~hi t) = expect
      && drain (Avl.iter_desc ~lo ~hi t) = List.rev expect)

let test_balanced_under_sequential_insert () =
  (* The adversarial case for unbalanced BSTs: sorted insertion. *)
  let t =
    List.fold_left
      (fun t i ->
        match Avl.insert (Printf.sprintf "%06d" i) i t with
        | `Ok t -> t
        | `Duplicate -> assert false)
      Avl.empty
      (List.init 10_000 Fun.id)
  in
  Alcotest.(check bool) "invariant" true (Avl.invariant_ok t);
  Alcotest.(check int) "length" 10_000 (Avl.length t)

(* Epoch-owned inserts against the persistent reference: a sequence of
   inserts and snapshots (an epoch bump each) must leave the owned tree
   with the reference's bindings and balance, and every snapshot must
   still read back the bindings it had when it was taken. *)
type op = Put of string | Snap

let ops_gen =
  QCheck.(
    list_of_size Gen.(int_bound 500)
      (map
         (fun (snap, k) -> if snap = 0 then Snap else Put k)
         (pair (int_bound 15) (string_gen_of_size Gen.(int_bound 4) Gen.printable))))

let prop_owned_vs_persistent =
  QCheck.Test.make ~name:"epoch-owned inserts match persistent inserts"
    ~count:300 ops_gen (fun ops ->
      let reference = ref Avl.empty and owned = ref Avl.empty in
      let epoch = ref 0 and snaps = ref [] and i = ref 0 in
      List.iter
        (function
          | Snap ->
              snaps := (!owned, drain (Avl.iter_asc !reference)) :: !snaps;
              incr epoch
          | Put k ->
              incr i;
              let dup_ref =
                match Avl.insert k !i !reference with
                | `Ok t ->
                    reference := t;
                    false
                | `Duplicate -> true
              in
              let dup_owned =
                match Avl.insert_owned ~epoch:!epoch k !i !owned with
                | t ->
                    owned := t;
                    false
                | exception Avl.Duplicate -> true
              in
              if dup_ref <> dup_owned then raise Exit)
        ops;
      let same t bindings =
        Avl.invariant_ok t
        && drain (Avl.iter_asc t) = bindings
        && drain (Avl.iter_desc t) = List.rev bindings
        && Avl.length t = List.length bindings
      in
      same !owned (drain (Avl.iter_asc !reference))
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
  let expect = drain (Avl.iter_asc snap) in
  let pool = Lt_exec.Pool.shared ~domains:1 in
  let seen = Atomic.make None and go = Atomic.make false in
  Lt_exec.Pool.submit_task pool (fun () ->
      while not (Atomic.get go) do Domain.cpu_relax () done;
      Atomic.set seen (Some (drain (Avl.iter_asc snap))));
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
    (drain (Avl.iter_asc snap) = expect);
  Alcotest.(check bool) "snapshot unchanged in a worker" true
    (from_worker = expect);
  Alcotest.(check bool) "snapshot balanced" true (Avl.invariant_ok snap);
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
