(* Nodes carry the epoch that owns them. An insert under epoch [e]
   mutates the nodes [e] owns in place and copies (into [e]) every other
   node it has to change, so a tree reachable from a root handed out
   before [e] began is never written again. [frozen] owns nothing: an
   insert under it copies its whole path, the classic persistent AVL. *)
type 'v t =
  | Leaf
  | Node of {
      mutable l : 'v t;
      k : string;
      v : 'v;
      mutable r : 'v t;
      mutable h : int;
      mutable n : int;
      e : int;  (** owner epoch *)
    }

[@@@lint.allow
  "domain-race: node fields are written only by an insert under the \
   epoch that owns the node, and a root reaches another thread or \
   domain only after Memtable.snapshot has moved its owner to a later \
   epoch, so no node another thread can reach is written again (the \
   epoch contract of avl.mli); the per-file analysis cannot follow \
   that hand-off through Memtable.snapshot"]

let frozen = -1

let empty = Leaf

let is_empty = function Leaf -> true | Node _ -> false

let height = function Leaf -> 0 | Node { h; _ } -> h

let length = function Leaf -> 0 | Node { n; _ } -> n

(* [t] when [epoch] owns it, else a copy that it owns. *)
let own epoch t =
  match t with
  | Node nd when nd.e = epoch && epoch <> frozen -> t
  | Node nd -> Node { nd with e = epoch }
  | Leaf -> Leaf

(* Recompute an owned node's height and size from its children. *)
let fix = function
  | Leaf -> ()
  | Node nd ->
      nd.h <- 1 + max (height nd.l) (height nd.r);
      nd.n <- 1 + length nd.l + length nd.r

(* Rotations of an owned node [t], returning the new subtree root; the
   child that moves up is owned first. *)
let rotate_right epoch t =
  match t with
  | Node x -> (
      match own epoch x.l with
      | Node l as lt ->
          x.l <- l.r;
          fix t;
          l.r <- t;
          fix lt;
          lt
      | Leaf -> assert false)
  | Leaf -> assert false

let rotate_left epoch t =
  match t with
  | Node x -> (
      match own epoch x.r with
      | Node r as rt ->
          x.r <- r.l;
          fix t;
          r.l <- t;
          fix rt;
          rt
      | Leaf -> assert false)
  | Leaf -> assert false

(* Standard AVL rebalance of an owned node whose subtrees are balanced
   and differ in height by at most two, and whose size is already
   counted. *)
let balance epoch t =
  match t with
  | Leaf -> t
  | Node x ->
      let hl = height x.l and hr = height x.r in
      if hl > hr + 1 then begin
        (match x.l with
        | Node l when height l.l < height l.r ->
            x.l <- rotate_left epoch (own epoch x.l)
        | _ -> ());
        rotate_right epoch t
      end
      else if hr > hl + 1 then begin
        (match x.r with
        | Node r when height r.r < height r.l ->
            x.r <- rotate_right epoch (own epoch x.r)
        | _ -> ());
        rotate_left epoch t
      end
      else begin
        x.h <- 1 + max hl hr;
        t
      end

exception Duplicate

(* The path is owned (copied if need be) only on the way back up, so a
   duplicate leaves no copy behind and the tree untouched. A node whose
   child kept its height keeps its own height and balance, so it is not
   rebalanced: the sibling subtree, off the insert's path, is read only
   where the height grew. *)
let rec add epoch key value t =
  match t with
  | Leaf -> Node { l = Leaf; k = key; v = value; r = Leaf; h = 1; n = 1; e = epoch }
  | Node x ->
      let c = String.compare key x.k in
      if c = 0 then raise Duplicate;
      let child = if c < 0 then x.l else x.r in
      let h0 = height child in
      let sub = add epoch key value child in
      let t = own epoch t in
      (match t with
      | Node y ->
          if c < 0 then y.l <- sub else y.r <- sub;
          y.n <- y.n + 1
      | Leaf -> assert false);
      if height sub = h0 then t else balance epoch t

let insert_owned ~epoch key value t =
  if epoch < 0 then invalid_arg "Avl.insert_owned: negative epoch";
  add epoch key value t

let insert key value t =
  match add frozen key value t with
  | tree -> `Ok tree
  | exception Duplicate -> `Duplicate

let rec find key = function
  | Leaf -> None
  | Node { l; k; v; r; _ } ->
      let c = String.compare key k in
      if c = 0 then Some v else if c < 0 then find key l else find key r

let rec mem key = function
  | Leaf -> false
  | Node { l; k; r; _ } ->
      let c = String.compare key k in
      c = 0 || mem key (if c < 0 then l else r)

let rec min_key = function
  | Leaf -> None
  | Node { l = Leaf; k; _ } -> Some k
  | Node { l; _ } -> min_key l

let rec max_key = function
  | Leaf -> None
  | Node { r = Leaf; k; _ } -> Some k
  | Node { r; _ } -> max_key r

let rec fold f t acc =
  match t with
  | Leaf -> acc
  | Node { l; k; v; r; _ } -> fold f r (f k v (fold f l acc))

(* Iterators are zippers: a stack of nodes still to visit, smallest (or
   largest) on top. A pushed node stands for its own binding and the
   subtree on the far side of it (its right subtree ascending, its left
   descending), read when the node is popped — which is why an iterator
   walks a frozen root only. *)
type 'v iter = {
  mutable stack : 'v t list;
  dir_asc : bool;
  lo : string option;  (** inclusive *)
  hi : string option;  (** exclusive *)
}

let rec push_left_bounded lo stack t =
  match t with
  | Leaf -> stack
  | Node { l; k; r; _ } -> (
      match lo with
      | Some b when String.compare k b < 0 ->
          (* Whole left subtree and this key are below the bound. *)
          push_left_bounded lo stack r
      | _ -> push_left_bounded lo (t :: stack) l)

let rec push_right_bounded hi stack t =
  match t with
  | Leaf -> stack
  | Node { l; k; r; _ } -> (
      match hi with
      | Some b when String.compare k b >= 0 ->
          (* This key and the whole right subtree are at/above the bound. *)
          push_right_bounded hi stack l
      | _ -> push_right_bounded hi (t :: stack) r)

let iter_asc ?lo ?hi t =
  { stack = push_left_bounded lo [] t; dir_asc = true; lo; hi }

let iter_desc ?lo ?hi t =
  { stack = push_right_bounded hi [] t; dir_asc = false; lo; hi }

let next it f =
  match it.stack with
  | [] | Leaf :: _ -> None
  | Node { l; k; v; r; _ } :: tl ->
      if it.dir_asc then begin
        match it.hi with
        | Some hi when String.compare k hi >= 0 ->
            it.stack <- [];
            None
        | _ ->
            it.stack <- push_left_bounded it.lo tl r;
            Some (f k v)
      end
      else begin
        match it.lo with
        | Some lo when String.compare k lo < 0 ->
            it.stack <- [];
            None
        | _ ->
            it.stack <- push_right_bounded it.hi tl l;
            Some (f k v)
      end

let rec invariant_ok = function
  | Leaf -> true
  | Node { l; r; h; n; _ } ->
      abs (height l - height r) <= 1
      && h = 1 + max (height l) (height r)
      && n = 1 + length l + length r
      && invariant_ok l && invariant_ok r
