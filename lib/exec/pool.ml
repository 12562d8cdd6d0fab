module Mutexes = Lt_util.Mutexes

type task = unit -> unit

type t = {
  mutex : Mutex.t;
  has_work : Condition.t;
  tasks : task Queue.t;
  mutable workers : unit Domain.t array;
  mutable stopping : bool;
  size : int;
}

let size t = t.size

let default_domains () = max 1 (Domain.recommended_domain_count () - 2)

(* Workers pull tasks until shutdown; a stopping pool still drains the
   queue so outstanding producer tasks always reach their completion
   bookkeeping. A raising task never kills its worker: task authors
   (Pscan producers) capture exceptions themselves, so anything escaping
   here has nowhere better to go than the floor. *)
let rec worker t =
  let task =
    Mutexes.with_lock t.mutex (fun () ->
        while Queue.is_empty t.tasks && not t.stopping do
          Condition.wait t.has_work t.mutex
        done;
        if Queue.is_empty t.tasks then None else Some (Queue.pop t.tasks))
  in
  match task with
  | None -> ()
  | Some task ->
      (try task () with _ -> ());
      worker t

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      mutex = Mutex.create ();
      has_work = Condition.create ();
      tasks = Queue.create ();
      workers = [||];
      stopping = false;
      size = domains;
    }
  in
  t.workers <- Array.init domains (fun _ -> Domain.spawn (fun () -> worker t));
  t

let submit_task t task =
  Mutexes.with_lock t.mutex (fun () ->
      if t.stopping then invalid_arg "Pool.submit_task: pool is shut down";
      Queue.push task t.tasks;
      Condition.signal t.has_work)

let shutdown t =
  let workers =
    Mutexes.with_lock t.mutex (fun () ->
        if t.stopping then [||]
        else begin
          t.stopping <- true;
          Condition.broadcast t.has_work;
          let w = t.workers in
          t.workers <- [||];
          w
        end)
  in
  Array.iter Domain.join workers

(* Process-wide pools, one per requested size, never shut down. Sharing
   by size keeps the total domain count bounded by the sum of distinct
   sizes ever requested (OCaml caps live domains well below what
   per-[Db] pools would burn through in a test suite), while the server
   — one [Db], one config — still gets exactly one pool sized once at
   startup. *)
let shared_mutex = Mutex.create ()

let shared_pools : (int, t) Hashtbl.t = Hashtbl.create 4

let shared ~domains =
  if domains < 1 then invalid_arg "Pool.shared: domains must be >= 1";
  Mutexes.with_lock shared_mutex (fun () ->
      match Hashtbl.find_opt shared_pools domains with
      | Some p -> p
      | None ->
          let p = create ~domains in
          Hashtbl.add shared_pools domains p;
          p)
