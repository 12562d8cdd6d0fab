module Mutexes = Lt_util.Mutexes

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
  inserted_bytes : int;
  resident_bytes : int;
  resident_entries : int;
}

type segment = Probation | Protected

type 'v node = {
  file : int;
  block : int;
  value : 'v;
  weight : int;
  mutable seg : segment;
  mutable prev : 'v node option;
  mutable next : 'v node option;
}

(* Intrusive doubly-linked list, head = MRU, tail = LRU. *)
type 'v lru = {
  mutable head : 'v node option;
  mutable tail : 'v node option;
  mutable bytes : int;
}

let lru_create () = { head = None; tail = None; bytes = 0 }

let lru_push_front l n =
  n.prev <- None;
  n.next <- l.head;
  (match l.head with Some h -> h.prev <- Some n | None -> l.tail <- Some n);
  l.head <- Some n;
  l.bytes <- l.bytes + n.weight

let lru_unlink l n =
  (match n.prev with Some p -> p.next <- n.next | None -> l.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> l.tail <- n.prev);
  n.prev <- None;
  n.next <- None;
  l.bytes <- l.bytes - n.weight

type 'v t = {
  mutex : Mutex.t;
  table : (int * int, 'v node) Hashtbl.t;
  probation : 'v lru;
  protected : 'v lru;
  capacity : int;
  prot_cap : int;  (** protected-segment byte target, ~80% of [capacity] *)
  next_file : int Atomic.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable insertions : int;
  mutable inserted_bytes : int;
}

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Block_cache.create: capacity <= 0";
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 256;
    probation = lru_create ();
    protected = lru_create ();
    capacity;
    prot_cap = capacity * 4 / 5;
    next_file = Atomic.make 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    insertions = 0;
    inserted_bytes = 0;
  }

let capacity t = t.capacity

let file_id t = Atomic.fetch_and_add t.next_file 1

let seg_list t = function Probation -> t.probation | Protected -> t.protected

(* Keep the protected segment at its byte target by demoting its LRU
   back to the probation MRU (standard SLRU: demoted blocks get one more
   chance before capacity eviction reaches them). *)
let rec rebalance_protected t =
  if t.protected.bytes > t.prot_cap then begin
    match t.protected.tail with
    | None -> ()
    | Some n ->
        lru_unlink t.protected n;
        n.seg <- Probation;
        lru_push_front t.probation n;
        rebalance_protected t
  end

(* Evict from the probation LRU (protected only once probation is empty)
   until the cache fits. *)
let rec evict_to_cap t =
  if t.probation.bytes + t.protected.bytes > t.capacity then begin
    let victim =
      match t.probation.tail with
      | Some _ as v -> v
      | None -> t.protected.tail
    in
    match victim with
    | None -> ()
    | Some n ->
        lru_unlink (seg_list t n.seg) n;
        Hashtbl.remove t.table (n.file, n.block);
        t.evictions <- t.evictions + 1;
        evict_to_cap t
  end

let find t ~file ~block =
  Mutexes.with_lock t.mutex (fun () ->
      match Hashtbl.find_opt t.table (file, block) with
      | None ->
          t.misses <- t.misses + 1;
          None
      | Some n ->
          t.hits <- t.hits + 1;
          (match n.seg with
          | Protected ->
              lru_unlink t.protected n;
              lru_push_front t.protected n
          | Probation ->
              lru_unlink t.probation n;
              n.seg <- Protected;
              lru_push_front t.protected n;
              rebalance_protected t);
          Some n.value)

let insert t ~file ~block ~bytes v =
  Mutexes.with_lock t.mutex (fun () ->
      match Hashtbl.find_opt t.table (file, block) with
      | Some n ->
          (* Raced with another reader loading the same block: refresh
             recency, keep the resident value. *)
          let l = seg_list t n.seg in
          lru_unlink l n;
          lru_push_front l n
      | None ->
          let n =
            {
              file;
              block;
              value = v;
              weight = max 1 bytes;
              seg = Probation;
              prev = None;
              next = None;
            }
          in
          Hashtbl.replace t.table (file, block) n;
          lru_push_front t.probation n;
          t.insertions <- t.insertions + 1;
          t.inserted_bytes <- t.inserted_bytes + n.weight;
          evict_to_cap t)

let invalidate_file t ~file =
  Mutexes.with_lock t.mutex (fun () ->
      let victims =
        Hashtbl.fold
          (fun _ n acc -> if n.file = file then n :: acc else acc)
          t.table []
      in
      List.iter
        (fun n ->
          lru_unlink (seg_list t n.seg) n;
          Hashtbl.remove t.table (n.file, n.block))
        victims)

let clear t =
  Mutexes.with_lock t.mutex (fun () ->
      Hashtbl.reset t.table;
      t.probation.head <- None;
      t.probation.tail <- None;
      t.probation.bytes <- 0;
      t.protected.head <- None;
      t.protected.tail <- None;
      t.protected.bytes <- 0)

let counters t : counters =
  Mutexes.with_lock t.mutex (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        insertions = t.insertions;
        inserted_bytes = t.inserted_bytes;
        resident_bytes = t.probation.bytes + t.protected.bytes;
        resident_entries = Hashtbl.length t.table;
      })

let reset_counters t =
  Mutexes.with_lock t.mutex (fun () ->
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0;
      t.insertions <- 0;
      t.inserted_bytes <- 0)
