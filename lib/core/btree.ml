(* A B+tree of small sorted arrays whose nodes carry the epoch that owns
   them. An insert under epoch [e] shifts keys inside the nodes [e] owns
   and copies (into [e]) every other node it has to change, so a root
   handed out before [e] began is never written again. Inner node
   [kids.(i + 1)] holds exactly the keys at or above [seps.(i)] and
   below [seps.(i + 1)]; every leaf sits at the same depth. *)

[@@@lint.allow
  "domain-race: node fields are written only by an insert under the \
   epoch that owns the node, and a root reaches another thread or \
   domain only after Memtable.snapshot has moved its owner to a later \
   epoch, so no node another thread can reach is written again (the \
   epoch contract of btree.mli); the per-file analysis cannot follow \
   that hand-off through Memtable.snapshot"]

(* Keys per leaf and children per inner node. 32 keeps a leaf's search
   to five compares over one contiguous key array, and a 10k-row
   memtable three levels deep. *)
let fanout = 32

type 'v node =
  | Leaf of {
      le : int;  (** owner epoch *)
      mutable ln : int;  (** keys held, at the front of the arrays *)
      keys : string array;
      vals : 'v array;
    }
  | Inner of {
      ie : int;  (** owner epoch *)
      mutable cn : int;  (** children held; [cn - 1] separators *)
      seps : string array;
      kids : 'v node array;
    }

type 'v t = { root : 'v node; size : int }

(* The live tree of one owner. Besides the root it keeps the finger
   (the leaf the last insert landed in, with the separator bounds
   [flo, fhi) that route a key there) and the scratch through which a
   split node hands its new right sibling to its parent. *)
type 'v writer = {
  mutable root : 'v node;
  mutable size : int;
  mutable epoch : int;
  mutable fleaf : 'v node;
  mutable flo : string;  (** inclusive; [""] is below every key *)
  mutable fhi : string;  (** exclusive, unless [fhi_open] *)
  mutable fhi_open : bool;
  mutable rightmost : bool;  (** the descent took every last child *)
  mutable dup : bool;
  mutable split : bool;
  mutable sep : string;  (** least key of [right] *)
  mutable right : 'v node;
}

(* An epoch no writer ever reaches, so a node of it is copied by any
   insert: the empty root's zero-capacity leaf. *)
let frozen = -1

let empty_root () = Leaf { le = frozen; ln = 0; keys = [||]; vals = [||] }

let writer () =
  let root = empty_root () in
  { root; size = 0; epoch = 0; fleaf = root; flo = ""; fhi = "";
    fhi_open = true; rightmost = true; dup = false; split = false; sep = "";
    right = root }

let freeze w =
  w.epoch <- w.epoch + 1;
  ({ root = w.root; size = w.size } : _ t)

let length (t : _ t) = t.size

let writer_length w = w.size

(* First index in [\[lo, hi)] whose key is at or above [key]. *)
let rec search keys key lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if String.compare (Array.unsafe_get keys mid) key < 0 then
      search keys key (mid + 1) hi
    else search keys key lo mid

(* The child of an inner node with [cn] children that [key] routes to:
   the number of separators at or below it. *)
let rec route seps key lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if String.compare key (Array.unsafe_get seps mid) < 0 then
      route seps key lo mid
    else route seps key (mid + 1) hi

let rec mem_node key = function
  | Leaf l ->
      let i = search l.keys key 0 l.ln in
      i < l.ln && String.equal l.keys.(i) key
  | Inner p -> mem_node key p.kids.(route p.seps key 0 (p.cn - 1))

let writer_mem w key = mem_node key w.root

(* ---- Insert ---------------------------------------------------------- *)

(* A leaf owned by [epoch] holding [n] slots of [l]'s arrays from
   [from]; the unused slots hold the key and value being inserted. *)
let leaf_of epoch keys vals ~from ~n ~key ~v =
  let k = Array.make fanout key and vs = Array.make fanout v in
  Array.blit keys from k 0 n;
  Array.blit vals from vs 0 n;
  Leaf { le = epoch; ln = n; keys = k; vals = vs }

(* [node] when [epoch] owns it, else a copy that it owns. *)
let own_inner epoch node =
  match node with
  | Inner p when p.ie = epoch -> node
  | Inner p ->
      Inner { ie = epoch; cn = p.cn; seps = Array.copy p.seps; kids = Array.copy p.kids }
  | Leaf _ -> assert false

(* Put [key, v] at slot [i] of an owned leaf with room. *)
let put_at node i key v =
  match node with
  | Leaf l ->
      let n = l.ln in
      Array.blit l.keys i l.keys (i + 1) (n - i);
      Array.blit l.vals i l.vals (i + 1) (n - i);
      l.keys.(i) <- key;
      l.vals.(i) <- v;
      l.ln <- n + 1
  | Inner _ -> assert false

(* Insert into leaf [node] at slot [i]; returns the leaf that replaces
   [node] in its parent and points the finger at the leaf [key] landed
   in. A full leaf splits in half, except that an append to the
   rightmost leaf leaves it full and starts a new leaf, so ascending
   input packs its leaves. *)
let add_leaf w node i key v =
  match node with
  | Inner _ -> assert false
  | Leaf l when l.ln < fanout ->
      let node =
        if l.le = w.epoch then node
        else leaf_of w.epoch l.keys l.vals ~from:0 ~n:l.ln ~key ~v
      in
      put_at node i key v;
      w.fleaf <- node;
      node
  | Leaf l when i = fanout && w.rightmost ->
      let right = leaf_of w.epoch l.keys l.vals ~from:0 ~n:0 ~key ~v in
      put_at right 0 key v;
      w.split <- true;
      w.sep <- key;
      w.right <- right;
      w.fleaf <- right;
      w.flo <- key;
      node
  | Leaf l ->
      let h = fanout / 2 in
      let sep = l.keys.(h) in
      let right = leaf_of w.epoch l.keys l.vals ~from:h ~n:(fanout - h) ~key ~v in
      let left =
        if l.le = w.epoch then node
        else leaf_of w.epoch l.keys l.vals ~from:0 ~n:h ~key ~v
      in
      (match left with Leaf ll -> ll.ln <- h | Inner _ -> assert false);
      if i <= h then begin
        put_at left i key v;
        w.fleaf <- left;
        w.fhi <- sep;
        w.fhi_open <- false
      end
      else begin
        put_at right (i - h) key v;
        w.fleaf <- right;
        w.flo <- sep
      end;
      w.split <- true;
      w.sep <- sep;
      w.right <- right;
      left

(* Put child [kid] with least key [sep] right after child [j] of an
   owned inner node with room. *)
let put_kid node j sep kid =
  match node with
  | Inner p ->
      let n = p.cn in
      Array.blit p.kids (j + 1) p.kids (j + 2) (n - j - 1);
      Array.blit p.seps j p.seps (j + 1) (n - j - 1);
      p.kids.(j + 1) <- kid;
      p.seps.(j) <- sep;
      p.cn <- n + 1
  | Leaf _ -> assert false

(* An inner node owned by [epoch] holding [n] children of [kids] from
   [from] and the [n - 1] separators between them. *)
let inner_of epoch seps kids ~from ~n =
  let s = Array.make (fanout - 1) "" and k = Array.make fanout kids.(from) in
  Array.blit kids from k 0 n;
  if n > 1 then Array.blit seps from s 0 (n - 1);
  Inner { ie = epoch; cn = n; seps = s; kids = k }

(* Hand child [j]'s split (in [w]) to the owned inner node [node]: add
   the new sibling, splitting [node] in turn when it is full (unevenly
   on the rightmost edge, as leaves do). *)
let absorb_split w node j =
  match node with
  | Leaf _ -> assert false
  | Inner p when p.cn < fanout ->
      put_kid node j w.sep w.right;
      w.split <- false
  | Inner p when w.rightmost ->
      (* [j] is the last child: the new sibling starts a new node. *)
      w.right <- inner_of w.epoch p.seps [| w.right |] ~from:0 ~n:1
  | Inner p ->
      let h = fanout / 2 in
      let up = p.seps.(h - 1) in
      let right = inner_of w.epoch p.seps p.kids ~from:h ~n:(fanout - h) in
      p.cn <- h;
      if j < h then put_kid node j w.sep w.right
      else put_kid right (j - h) w.sep w.right;
      w.sep <- up;
      w.right <- right

(* Insert below [node] and return the node that replaces it in its
   parent: [node] itself unless the insert had to copy it. The descent
   narrows the finger's bounds level by level to those of the leaf it
   reaches, which becomes the finger, and nothing is copied before that
   leaf has ruled out a duplicate. *)
let rec add_node w node key v =
  match node with
  | Leaf l ->
      let i = search l.keys key 0 l.ln in
      if i < l.ln && String.equal l.keys.(i) key then begin
        (* The bounds the descent left are this leaf's. *)
        w.fleaf <- node;
        w.dup <- true;
        node
      end
      else add_leaf w node i key v
  | Inner p ->
      let last = p.cn - 1 in
      let j = route p.seps key 0 last in
      if j > 0 then w.flo <- p.seps.(j - 1);
      if j < last then begin
        w.fhi <- p.seps.(j);
        w.fhi_open <- false;
        w.rightmost <- false
      end;
      let kid = p.kids.(j) in
      let kid' = add_node w kid key v in
      if kid' == kid && not w.split then node
      else begin
        let node = own_inner w.epoch node in
        (match node with Inner q -> q.kids.(j) <- kid' | Leaf _ -> ());
        if w.split then absorb_split w node j;
        node
      end

let descend w key v =
  w.flo <- "";
  w.fhi_open <- true;
  w.rightmost <- true;
  w.dup <- false;
  w.split <- false;
  let root = add_node w w.root key v in
  if w.dup then false
  else begin
    w.root <-
      (if w.split then begin
         w.split <- false;
         let kids = Array.make fanout root and seps = Array.make (fanout - 1) w.sep in
         kids.(1) <- w.right;
         Inner { ie = w.epoch; cn = 2; seps; kids }
       end
       else root);
    w.size <- w.size + 1;
    true
  end

(* The finger: a key inside the bounds of the leaf the last insert
   landed in, which this epoch owns and which has room, goes straight
   to that leaf; anything else descends from the root. *)
let add w key v =
  match w.fleaf with
  | Leaf f
    when f.le = w.epoch && f.ln < fanout
         && String.compare key w.flo >= 0
         && (w.fhi_open || String.compare key w.fhi < 0) ->
      let i = search f.keys key 0 f.ln in
      if i < f.ln && String.equal f.keys.(i) key then false
      else begin
        put_at w.fleaf i key v;
        w.size <- w.size + 1;
        true
      end
  | _ -> descend w key v

(* ---- Reads of a frozen tree ------------------------------------------ *)

let rec min_node = function
  | Leaf l -> if l.ln = 0 then None else Some l.keys.(0)
  | Inner p -> min_node p.kids.(0)

let rec max_node = function
  | Leaf l -> if l.ln = 0 then None else Some l.keys.(l.ln - 1)
  | Inner p -> max_node p.kids.(p.cn - 1)

let min_key (t : _ t) = min_node t.root

let max_key (t : _ t) = max_node t.root

let rec fold_node f node acc =
  match node with
  | Leaf l ->
      let acc = ref acc in
      for i = 0 to l.ln - 1 do
        acc := f l.keys.(i) l.vals.(i) !acc
      done;
      !acc
  | Inner p ->
      let acc = ref acc in
      for i = 0 to p.cn - 1 do
        acc := fold_node f p.kids.(i) !acc
      done;
      !acc

let fold f (t : _ t) acc = fold_node f t.root acc

(* An iterator stands on a leaf slot and keeps the inner nodes above
   that leaf, innermost first, each with the child it went down. *)
type 'v iter = {
  mutable leaf : 'v node;
  mutable pos : int;  (** next slot to yield *)
  mutable path : ('v node * int) list;
  mutable over : bool;
  asc : bool;
  lo : string option;  (** inclusive *)
  hi : string option;  (** exclusive *)
}

(* Go down from child [j] of [node] to a leaf along first children
   (ascending) or last ones, pushing the path. *)
let rec down it node j =
  it.path <- (node, j) :: it.path;
  match node with
  | Leaf _ -> assert false
  | Inner p -> (
      match p.kids.(j) with
      | Inner c as kid -> down it kid (if it.asc then 0 else c.cn - 1)
      | Leaf l as leaf ->
          it.leaf <- leaf;
          it.pos <- (if it.asc then 0 else l.ln - 1))

(* Move to the next leaf in the iterator's direction; [false] past the
   last one. *)
let rec climb it =
  match it.path with
  | [] -> false
  | (node, j) :: up -> (
      it.path <- up;
      match node with
      | Inner p when it.asc && j + 1 < p.cn ->
          down it node (j + 1);
          true
      | Inner _ when (not it.asc) && j > 0 ->
          down it node (j - 1);
          true
      | _ -> climb it)

(* Go down to the leaf holding the first key at or above [b] (or the
   last key below it, descending). *)
let rec seek it node b =
  match node with
  | Inner p ->
      let j = route p.seps b 0 (p.cn - 1) in
      it.path <- (node, j) :: it.path;
      seek it p.kids.(j) b
  | Leaf l ->
      it.leaf <- node;
      let i = search l.keys b 0 l.ln in
      it.pos <- (if it.asc then i else i - 1)

let start it root bound =
  match (bound, root) with
  | Some b, _ -> seek it root b
  | None, Leaf l ->
      it.leaf <- root;
      it.pos <- (if it.asc then 0 else l.ln - 1)
  | None, Inner p -> down it root (if it.asc then 0 else p.cn - 1)

let iter_asc ?lo ?hi (t : _ t) =
  let it =
    { leaf = t.root; pos = 0; path = []; over = false; asc = true; lo; hi }
  in
  start it t.root lo;
  it

let iter_desc ?lo ?hi (t : _ t) =
  let it =
    { leaf = t.root; pos = 0; path = []; over = false; asc = false; lo; hi }
  in
  start it t.root hi;
  it

let rec next it f =
  if it.over then None
  else
    match it.leaf with
    | Inner _ -> assert false
    | Leaf l ->
        let i = it.pos in
        if i >= 0 && i < l.ln then begin
          let k = l.keys.(i) in
          let past =
            if it.asc then
              match it.hi with Some hi -> String.compare k hi >= 0 | None -> false
            else
              match it.lo with Some lo -> String.compare k lo < 0 | None -> false
          in
          if past then begin
            it.over <- true;
            it.path <- [];
            None
          end
          else begin
            it.pos <- (if it.asc then i + 1 else i - 1);
            Some (f k l.vals.(i))
          end
        end
        else if climb it then next it f
        else begin
          it.over <- true;
          None
        end

(* ---- Invariant ------------------------------------------------------- *)

(* Every node sorted and within its separator bounds, leaves at one
   depth, occupancy within [1, fanout] (an empty tree is one empty
   leaf), and the size the sum of the leaves'. *)
let invariant_ok (t : _ t) =
  let in_bounds lo hi k =
    (match lo with Some b -> String.compare k b >= 0 | None -> true)
    && match hi with Some b -> String.compare k b < 0 | None -> true
  in
  let sorted a n =
    let ok = ref true in
    for i = 1 to n - 1 do
      if String.compare a.(i - 1) a.(i) >= 0 then ok := false
    done;
    !ok
  in
  let depth = ref (-1) in
  (* The number of keys under [node], or [-1] when it breaks a rule. *)
  let rec check node d lo hi =
    match node with
    | Leaf l ->
        if !depth < 0 then depth := d;
        if
          d = !depth && l.ln <= fanout
          && (l.ln >= 1 || (d = 0 && t.size = 0))
          && sorted l.keys l.ln
          && (l.ln = 0 || (in_bounds lo hi l.keys.(0) && in_bounds lo hi l.keys.(l.ln - 1)))
        then l.ln
        else -1
    | Inner p ->
        if p.cn < 1 || p.cn > fanout || not (sorted p.seps (p.cn - 1)) then -1
        else begin
          let total = ref 0 in
          for j = 0 to p.cn - 1 do
            let clo = if j = 0 then lo else Some p.seps.(j - 1) in
            let chi = if j = p.cn - 1 then hi else Some p.seps.(j) in
            let n = check p.kids.(j) (d + 1) clo chi in
            if n < 0 || !total < 0 then total := -1 else total := !total + n
          done;
          !total
        end
  in
  check t.root 0 None None = t.size
