(* Metrics registry. See metrics.mli for the model.

   Layout: a registry holds families keyed by metric name; a family
   holds children keyed by its canonical (sorted) label string. All
   hot-path state lives in the child: one mutex plus a handful of
   mutable fields, so concurrent observations on different series never
   contend. The registry-wide mutex only guards family/child creation
   and collector registration — never the observation path. *)

type kind = K_counter | K_gauge | K_histogram

type child = {
  c_labels : (string * string) list; (* sorted by label name *)
  c_mutex : Mutex.t;
  c_enabled : bool ref; (* shared with the registry *)
  mutable c_count : int; (* counter value / histogram observation count *)
  mutable c_fval : float; (* gauge value / histogram sum *)
  mutable c_max : float;
  c_bucket_counts : int array; (* histogram only: per-bucket + final +Inf *)
  c_bounds : float array; (* histogram only: upper bounds, no +Inf *)
}

type family = {
  f_name : string;
  f_help : string;
  f_kind : kind;
  f_bounds : float array;
  f_children : (string, child) Hashtbl.t;
}

type registry = {
  r_enabled : bool ref;
  r_mutex : Mutex.t;
  r_families : (string, family) Hashtbl.t;
  mutable r_collectors : (unit -> sample list) list; (* reversed *)
}

and sample = {
  s_name : string;
  s_help : string;
  s_kind : [ `Counter | `Gauge ];
  s_labels : (string * string) list;
  s_value : float;
}

let create_registry ?(enabled = true) () =
  { r_enabled = ref enabled;
    r_mutex = Mutex.create ();
    r_families = Hashtbl.create 32;
    r_collectors = [] }

let set_enabled r b = r.r_enabled := b
let enabled r = !(r.r_enabled)

let with_lock = Lt_util.Mutexes.with_lock

let sort_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

(* Canonical identity of a label set within a family. The '\001'
   separator cannot appear in reasonable label text. *)
let label_key labels =
  String.concat "\001" (List.map (fun (k, v) -> k ^ "\001" ^ v) labels)

let family r ~name ~help ~kind ~bounds =
  with_lock r.r_mutex (fun () ->
      match Hashtbl.find_opt r.r_families name with
      | Some f ->
          if f.f_kind <> kind then
            invalid_arg
              (Printf.sprintf "Metrics: %s already registered with another kind"
                 name);
          if kind = K_histogram && f.f_bounds <> bounds then
            invalid_arg
              (Printf.sprintf
                 "Metrics: histogram %s already registered with other buckets"
                 name);
          f
      | None ->
          let f =
            { f_name = name; f_help = help; f_kind = kind; f_bounds = bounds;
              f_children = Hashtbl.create 4 }
          in
          Hashtbl.add r.r_families name f;
          f)

let child r f labels =
  let labels = sort_labels labels in
  let key = label_key labels in
  with_lock r.r_mutex (fun () ->
      match Hashtbl.find_opt f.f_children key with
      | Some c -> c
      | None ->
          let nbuckets =
            if f.f_kind = K_histogram then Array.length f.f_bounds + 1 else 0
          in
          let c =
            { c_labels = labels;
              c_mutex = Mutex.create ();
              c_enabled = r.r_enabled;
              c_count = 0;
              c_fval = 0.0;
              c_max = 0.0;
              c_bucket_counts = Array.make nbuckets 0;
              c_bounds = f.f_bounds }
          in
          Hashtbl.add f.f_children key c;
          c)

module Counter = struct
  type t = child

  let inc c n =
    if n < 0 then invalid_arg "Metrics.Counter.inc: negative";
    if !(c.c_enabled) then
      with_lock c.c_mutex (fun () -> c.c_count <- c.c_count + n)

  let value c = with_lock c.c_mutex (fun () -> c.c_count)
end

module Gauge = struct
  type t = child

  let set c v =
    if !(c.c_enabled) then with_lock c.c_mutex (fun () -> c.c_fval <- v)

  let value c = with_lock c.c_mutex (fun () -> c.c_fval)
end

module Histogram = struct
  type t = child

  (* 1-2-5 series, 1 µs .. 60 s, in seconds. Written out literally so
     the boundaries are exact and stable across builds. *)
  let default_buckets =
    [| 1e-6; 2e-6; 5e-6; 1e-5; 2e-5; 5e-5; 1e-4; 2e-4; 5e-4; 1e-3; 2e-3; 5e-3;
       1e-2; 2e-2; 5e-2; 0.1; 0.2; 0.5; 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 60.0
    |]

  (* Index of the first bound >= v, or Array.length bounds for +Inf. *)
  let bucket_index bounds v =
    let n = Array.length bounds in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

  let observe c v =
    if !(c.c_enabled) then begin
      let i = bucket_index c.c_bounds v in
      with_lock c.c_mutex (fun () ->
          c.c_bucket_counts.(i) <- c.c_bucket_counts.(i) + 1;
          c.c_count <- c.c_count + 1;
          c.c_fval <- c.c_fval +. v;
          if v > c.c_max then c.c_max <- v)
    end

  let observe_us c us = observe c (Int64.to_float us *. 1e-6)

  let count c = with_lock c.c_mutex (fun () -> c.c_count)
  let sum c = with_lock c.c_mutex (fun () -> c.c_fval)
  let max_value c = with_lock c.c_mutex (fun () -> c.c_max)
  let buckets c = Array.copy c.c_bounds

  let bucket_counts c =
    with_lock c.c_mutex (fun () -> Array.copy c.c_bucket_counts)

  let percentile c q =
    with_lock c.c_mutex (fun () ->
        if c.c_count = 0 then 0.0
        else begin
          let q = Float.max 0.0 (Float.min 1.0 q) in
          let target = q *. float_of_int c.c_count in
          let nbounds = Array.length c.c_bounds in
          let rec find i cum =
            if i >= nbounds then c.c_max
            else
              let cum' = cum + c.c_bucket_counts.(i) in
              if float_of_int cum' >= target && c.c_bucket_counts.(i) > 0 then begin
                let lower = if i = 0 then 0.0 else c.c_bounds.(i - 1) in
                let upper = c.c_bounds.(i) in
                let frac =
                  (target -. float_of_int cum)
                  /. float_of_int c.c_bucket_counts.(i)
                in
                let v = lower +. (frac *. (upper -. lower)) in
                Float.min v c.c_max
              end
              else find (i + 1) cum'
          in
          find 0 0
        end)

  let p50 c = percentile c 0.5
  let p90 c = percentile c 0.9
  let p99 c = percentile c 0.99

  let merge_into ~into src =
    if into.c_bounds <> src.c_bounds then
      invalid_arg "Metrics.Histogram.merge_into: bucket bounds differ";
    let counts, n, s, m =
      with_lock src.c_mutex (fun () ->
          (Array.copy src.c_bucket_counts, src.c_count, src.c_fval, src.c_max))
    in
    with_lock into.c_mutex (fun () ->
        Array.iteri
          (fun i v ->
            into.c_bucket_counts.(i) <- into.c_bucket_counts.(i) + v)
          counts;
        into.c_count <- into.c_count + n;
        into.c_fval <- into.c_fval +. s;
        if m > into.c_max then into.c_max <- m)
end

let counter r ?(help = "") ?(labels = []) name =
  let f = family r ~name ~help ~kind:K_counter ~bounds:[||] in
  child r f labels

let gauge r ?(help = "") ?(labels = []) name =
  let f = family r ~name ~help ~kind:K_gauge ~bounds:[||] in
  child r f labels

let histogram r ?(help = "") ?(buckets = Histogram.default_buckets)
    ?(labels = []) name =
  let f = family r ~name ~help ~kind:K_histogram ~bounds:buckets in
  child r f labels

let register_collector r fn =
  with_lock r.r_mutex (fun () -> r.r_collectors <- fn :: r.r_collectors)

(* ---- Prometheus text exposition (format 0.0.4) ---- *)

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun ch ->
      match ch with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | ch -> Buffer.add_char buf ch)
    v;
  Buffer.contents buf

let escape_help v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun ch ->
      match ch with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | ch -> Buffer.add_char buf ch)
    v;
  Buffer.contents buf

(* Stable float text: integers render bare, everything else with enough
   digits to round-trip the bucket bounds ("1e-06", "0.001", ...). *)
let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let render_labels buf labels =
  match labels with
  | [] -> ()
  | labels ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (escape_label_value v);
          Buffer.add_char buf '"')
        labels;
      Buffer.add_char buf '}'

let render_header buf name help typ =
  if help <> "" then begin
    Buffer.add_string buf "# HELP ";
    Buffer.add_string buf name;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (escape_help help);
    Buffer.add_char buf '\n'
  end;
  Buffer.add_string buf "# TYPE ";
  Buffer.add_string buf name;
  Buffer.add_char buf ' ';
  Buffer.add_string buf typ;
  Buffer.add_char buf '\n'

let render_sample buf name labels value =
  Buffer.add_string buf name;
  render_labels buf labels;
  Buffer.add_char buf ' ';
  Buffer.add_string buf value;
  Buffer.add_char buf '\n'

(* ---- Snapshots and federation ----------------------------------------- *)

type snap_child = {
  sn_labels : (string * string) list; (* sorted by label name *)
  sn_count : int; (* histogram observation count *)
  sn_fval : float; (* counter/gauge value / histogram sum *)
  sn_max : float;
  sn_buckets : int array; (* per-bucket counts incl. +Inf; [||] otherwise *)
}

type snap_family = {
  sn_name : string;
  sn_help : string;
  sn_kind : kind;
  sn_bounds : float array;
  sn_children : snap_child list;
}

type snapshot = snap_family list

let snapshot r =
  let families, collectors =
    with_lock r.r_mutex (fun () ->
        let fs = Hashtbl.fold (fun _ f acc -> f :: acc) r.r_families [] in
        (fs, List.rev r.r_collectors))
  in
  let snap_of_family f =
    let children =
      Hashtbl.fold (fun k c acc -> (k, c) :: acc) f.f_children []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.map (fun (_, c) ->
             let labels, count, fval, mx, buckets =
               with_lock c.c_mutex (fun () ->
                   ( c.c_labels, c.c_count, c.c_fval, c.c_max,
                     Array.copy c.c_bucket_counts ))
             in
             let fval =
               (* Counters keep their value in c_count; surface it as the
                  float so federation sums one field per kind. *)
               if f.f_kind = K_counter then float_of_int count else fval
             in
             { sn_labels = labels;
               sn_count = count;
               sn_fval = fval;
               sn_max = mx;
               sn_buckets = buckets })
    in
    { sn_name = f.f_name;
      sn_help = f.f_help;
      sn_kind = f.f_kind;
      sn_bounds = Array.copy f.f_bounds;
      sn_children = children }
  in
  let direct =
    List.sort
      (fun a b -> String.compare a.sn_name b.sn_name)
      (List.map snap_of_family families)
  in
  (* Collector samples (Stats counters etc.) become synthetic families
     after the registry's: grouped by name, sorted by name, keeping the
     order collected within a family (a stable sort). *)
  let family s children =
    { sn_name = s.s_name;
      sn_help = s.s_help;
      sn_kind = (match s.s_kind with `Counter -> K_counter | `Gauge -> K_gauge);
      sn_bounds = [||];
      sn_children = children }
  in
  let child s =
    { sn_labels = sort_labels s.s_labels;
      sn_count = 0;
      sn_fval = s.s_value;
      sn_max = 0.0;
      sn_buckets = [||] }
  in
  let collected =
    List.fold_right
      (fun s acc ->
        match acc with
        | f :: rest when f.sn_name = s.s_name ->
            family s (child s :: f.sn_children) :: rest
        | _ -> family s [ child s ] :: acc)
      (List.stable_sort
         (fun a b -> String.compare a.s_name b.s_name)
         (List.concat_map (fun fn -> fn ()) collectors))
      []
  in
  direct @ collected

(* The one Prometheus text writer: every exposition — a registry, a
   node's wire view, a router's federation — is a snapshot first. *)
let render_snapshot snap =
  let buf = Buffer.create 4096 in
  List.iter
    (fun f ->
      let typ =
        match f.sn_kind with
        | K_counter -> "counter"
        | K_gauge -> "gauge"
        | K_histogram -> "histogram"
      in
      render_header buf f.sn_name f.sn_help typ;
      let name = f.sn_name in
      List.iter
        (fun c ->
          match f.sn_kind with
          | K_counter | K_gauge ->
              render_sample buf name c.sn_labels (fmt_float c.sn_fval)
          | K_histogram ->
              let bucket le n =
                render_sample buf (name ^ "_bucket")
                  (c.sn_labels @ [ ("le", le) ])
                  (string_of_int n)
              in
              let cum = ref 0 in
              Array.iteri
                (fun i bound ->
                  cum := !cum + c.sn_buckets.(i);
                  bucket (fmt_float bound) !cum)
                f.sn_bounds;
              bucket "+Inf" c.sn_count;
              render_sample buf (name ^ "_sum") c.sn_labels
                (fmt_float c.sn_fval);
              render_sample buf (name ^ "_count") c.sn_labels
                (string_of_int c.sn_count))
        f.sn_children)
    snap;
  Buffer.contents buf

let render r = render_snapshot (snapshot r)

let merge_snap_children children =
  let tbl : (string, snap_child ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun c ->
      let key = label_key c.sn_labels in
      match Hashtbl.find_opt tbl key with
      | None ->
          order := key :: !order;
          Hashtbl.add tbl key (ref { c with sn_buckets = Array.copy c.sn_buckets })
      | Some acc ->
          let a = !acc in
          let buckets =
            if Array.length a.sn_buckets = Array.length c.sn_buckets then begin
              let b = Array.copy a.sn_buckets in
              Array.iteri (fun i v -> b.(i) <- b.(i) + v) c.sn_buckets;
              b
            end
            else a.sn_buckets
          in
          acc :=
            { a with
              sn_count = a.sn_count + c.sn_count;
              sn_fval = a.sn_fval +. c.sn_fval;
              sn_max = Float.max a.sn_max c.sn_max;
              sn_buckets = buckets })
    children;
  List.rev_map (fun key -> !(Hashtbl.find tbl key)) !order
  |> List.sort (fun a b ->
         String.compare (label_key a.sn_labels) (label_key b.sn_labels))

(* Federation: for every family present in any source, (a) aggregate
   children merged across sources — cluster-wide totals and mergeable
   histograms — then (b) each source's children again with a
   [shard=<label>] label appended, for the per-shard breakdown. Sources
   whose kind or histogram bounds disagree with the first occurrence
   are skipped for that family (federation never guesses at
   semantics). *)
let federate sources =
  let tbl :
      (string, snap_family * (string * snap_family) list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let names = ref [] in
  List.iter
    (fun (shard, snap) ->
      List.iter
        (fun fam ->
          match Hashtbl.find_opt tbl fam.sn_name with
          | None ->
              names := fam.sn_name :: !names;
              Hashtbl.add tbl fam.sn_name (fam, ref [ (shard, fam) ])
          | Some (proto, acc) ->
              if proto.sn_kind = fam.sn_kind && proto.sn_bounds = fam.sn_bounds
              then acc := (shard, fam) :: !acc)
        snap)
    sources;
  List.map
    (fun name ->
      let proto, acc = Hashtbl.find tbl name in
      let occurrences = List.rev !acc in
      let merged =
        merge_snap_children
          (List.concat_map (fun (_, fam) -> fam.sn_children) occurrences)
      in
      let labelled =
        List.concat_map
          (fun (shard, fam) ->
            List.map
              (fun c ->
                { c with sn_labels = c.sn_labels @ [ ("shard", shard) ] })
              fam.sn_children)
          occurrences
      in
      { proto with sn_children = merged @ labelled })
    (List.sort String.compare !names)
