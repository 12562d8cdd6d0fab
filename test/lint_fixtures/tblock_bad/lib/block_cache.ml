(* Blocking VFS work inside the block cache's lock: the read and the
   decompression belong outside it. *)
type t = { mutex : Mutex.t; vfs : Vfs.t }

let bad t = Mutexes.with_lock t.mutex (fun () -> Vfs.fsync t.vfs)
