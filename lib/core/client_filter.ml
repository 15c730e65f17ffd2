module Protocol = Secshare_rpc.Protocol
module Transport = Secshare_rpc.Transport
module Obs = Secshare_obs

exception Filter_error of string

(* Share-cache observability: pure hit/miss/evict counts, no key or
   polynomial material (DESIGN.md §9). *)
let obs_cache_hits =
  Obs.Registry.counter ~help:"Client share-regeneration cache hits."
    "ssdb_client_share_cache_hits_total"

let obs_cache_misses =
  Obs.Registry.counter ~help:"Client share-regeneration cache misses (PRG runs)."
    "ssdb_client_share_cache_misses_total"

let obs_cache_evictions =
  Obs.Registry.counter ~help:"Client share-regeneration cache LRU evictions."
    "ssdb_client_share_cache_evictions_total"

type t = {
  ring : Secshare_poly.Ring.t;
  tab : Secshare_field.Table.t;  (** the ring's flat op-tables *)
  prg : Secshare_prg.Node_prg.t;  (** the seed, expanded once *)
  transport : Transport.t;
  scan_batch : int;
  metrics : Metrics.t;
  share_cache : (int, int array) Lru.t option;
      (* pre -> regenerated client coefficients; nothing ever writes a
         cached array (every write goes to the scratch buffers below) *)
  eval_cache : (int * int, int) Lru.t option;
      (* (pre, point) -> client evaluation, so a repeated query skips
         even the O(degree) Horner pass *)
  node : int array;
  child : int array;
  product : int array;
  spare : int array;
      (* equality-test scratch, [ring.n] coefficients each: the node's
         reconstructed polynomial, one child's, and the ping-pong pair
         the child product folds through *)
}

let create ring ~seed ?(scan_batch = 256) ?(share_cache = 4096) transport =
  let n = ring.Secshare_poly.Ring.n in
  {
    ring;
    tab = Share.kernel_table ring;
    prg = Secshare_prg.Node_prg.create seed;
    transport;
    scan_batch = max 1 scan_batch;
    metrics = Metrics.create ();
    share_cache = (if share_cache <= 0 then None else Some (Lru.create share_cache));
    eval_cache = (if share_cache <= 0 then None else Some (Lru.create (4 * share_cache)));
    node = Array.make n 0;
    child = Array.make n 0;
    product = Array.make n 0;
    spare = Array.make n 0;
  }

let metrics t = t.metrics

let reset_metrics t =
  Metrics.reset t.metrics;
  (* the evaluation memo is per-workload state like the metrics; the
     polynomial cache survives resets (entries stay exact forever) *)
  Option.iter Lru.clear t.eval_cache

let rpc_counters t = Transport.counters t.transport
let scan_batch t = t.scan_batch

(* Always true since the fused [Scan_eval] protocol became the only
   one; kept because perfbench/perfbench.ml still reads it. *)
let fused_scan _ = true
let share_cache_stats t = Option.map Lru.stats t.share_cache
let share_cache_capacity t = Option.fold ~none:0 ~some:Lru.capacity t.share_cache

let regenerate t ~pre out =
  Secshare_prg.Node_prg.fill t.prg ~pre ~q:t.ring.Secshare_poly.Ring.order out

(* The client coefficients of node [pre]: recalled from the cache,
   or regenerated into a fresh array the cache keeps, or, with the
   cache off, regenerated into [scratch]. *)
let client_coeffs t ~pre ~scratch =
  match t.share_cache with
  | None ->
      regenerate t ~pre scratch;
      scratch
  | Some cache -> (
      match Lru.find cache pre with
      | Some coeffs ->
          Obs.Registry.inc obs_cache_hits;
          coeffs
      | None ->
          Obs.Registry.inc obs_cache_misses;
          let coeffs = Array.make t.ring.Secshare_poly.Ring.n 0 in
          regenerate t ~pre coeffs;
          let before = (Lru.stats cache).Lru.evictions in
          Lru.add cache ~key:pre ~value:coeffs;
          Obs.Registry.inc ~by:((Lru.stats cache).Lru.evictions - before)
            obs_cache_evictions;
          coeffs)

(* Evaluate the client share: the flat Horner kernel over the client
   coefficients — no unpacking, no closure calls.  The zero point is
   rejected by [Flat.point_row]. *)
let eval_client t ~pre point =
  Secshare_poly.Flat.eval_coeffs t.tab
    ~mul_row:
      (Secshare_poly.Flat.point_row t.tab
         ~point:(t.ring.Secshare_poly.Ring.normalize point))
    (client_coeffs t ~pre ~scratch:t.node)

let client_eval t ~pre ~point =
  match t.eval_cache with
  | None -> eval_client t ~pre point
  | Some cache ->
      Lru.find_or_add cache (pre, point) ~compute:(fun _ -> eval_client t ~pre point)

let call t request =
  match Transport.call t.transport request with
  | Protocol.Error_msg msg -> raise (Filter_error msg)
  | response -> response

let protocol_error what response =
  raise
    (Filter_error
       (Format.asprintf "unexpected response to %s: %a" what Protocol.pp_response response))

let root t =
  match call t Protocol.Root with
  | Protocol.Node_opt meta -> meta
  | response -> protocol_error "Root" response

let children t ~pre =
  match call t (Protocol.Children pre) with
  | Protocol.Nodes metas -> metas
  | response -> protocol_error "Children" response

let parent t ~pre =
  match call t (Protocol.Parent pre) with
  | Protocol.Node_opt meta -> meta
  | response -> protocol_error "Parent" response

let cursor_close t cursor =
  match call t (Protocol.Cursor_close cursor) with
  | Protocol.Pong -> ()
  | response -> protocol_error "Cursor_close" response

(* --- fused scans (Scan_eval) --- *)

let scan_eval t ~target ~points ~max_items =
  match call t (Protocol.Scan_eval { target; points; max_items }) with
  | Protocol.Scan_batch { rows; cursor } -> (rows, cursor)
  | response -> protocol_error "Scan_eval" response

let scan_next t ~cursor ~max_items =
  match call t (Protocol.Scan_next { cursor; max_items }) with
  | Protocol.Scan_batch { rows; cursor } -> (rows, cursor)
  | response -> protocol_error "Scan_next" response

(* Merge one fused batch: for each row, regenerate the client share,
   combine with the server evaluations, and keep the rows where every
   point sums to zero (the containment test, one pair per point). *)
let filter_scan_rows t rows ~points =
  match points with
  | [] -> List.map fst rows
  | _ ->
      let n_points = List.length points in
      (* counters accumulate in a batch-local instance and merge once
         at the end: [t.metrics] is only ever touched at batch
         boundaries, on the thread that owns this filter *)
      let batch = Metrics.create () in
      let kept =
        List.filter_map
          (fun ((meta : Protocol.node_meta), server_values) ->
            if List.length server_values <> n_points then
              raise (Filter_error "Scan_batch arity mismatch");
            batch.Metrics.nodes_examined <- batch.Metrics.nodes_examined + 1;
            batch.Metrics.evaluations <- batch.Metrics.evaluations + n_points;
            let contains point server_value =
              let client_value = client_eval t ~pre:meta.Protocol.pre ~point in
              Share.combine_evaluations t.ring ~client:client_value ~server:server_value
              = 0
            in
            if List.for_all2 contains points server_values then Some meta else None)
          rows
      in
      Metrics.add t.metrics batch;
      kept

let table_stats t =
  match call t Protocol.Table_stats with
  | Protocol.Stats stats -> stats
  | response -> protocol_error "Table_stats" response

let containment_batch t metas ~point =
  match metas with
  | [] -> []
  | _ -> (
      let pres = List.map (fun (m : Protocol.node_meta) -> m.Protocol.pre) metas in
      match call t (Protocol.Eval_batch { pres; point }) with
      | Protocol.Values values ->
          if List.length values <> List.length metas then
            raise (Filter_error "Eval_batch arity mismatch");
          let batch = Metrics.create () in
          batch.Metrics.evaluations <- List.length metas;
          batch.Metrics.nodes_examined <- List.length metas;
          Metrics.add t.metrics batch;
          List.filter_map
            (fun ((meta : Protocol.node_meta), server_value) ->
              let client_value = client_eval t ~pre:meta.Protocol.pre ~point in
              if Share.combine_evaluations t.ring ~client:client_value ~server:server_value = 0
              then Some meta
              else None)
            (List.combine metas values)
      | response -> protocol_error "Eval_batch" response)

(* --- aggregation (Agg_eval) --- *)

let agg_eval t pres =
  match call t (Protocol.Agg_eval { pres }) with
  | Protocol.Agg_partial { count; sum } -> (count, sum)
  | response -> protocol_error "Agg_eval" response

(* The client's half of an aggregate: the sum of the PRG blinding
   values the encoder subtracted from each matched leaf. *)
let blind_sum t pres =
  List.fold_left (fun acc pre -> Numeric.add acc (Numeric.blind_with t.prg ~pre)) 0 pres

let fetch_shares t pres =
  match call t (Protocol.Shares pres) with
  | Protocol.Shares_data shares ->
      if List.length shares <> List.length pres then
        raise (Filter_error "Shares arity mismatch");
      shares
  | response -> protocol_error "Shares" response

(* Node [pre]'s polynomial, client half plus the packed server half,
   rebuilt in the scratch buffer [out]. *)
let reconstruct_into t ~pre share ~out =
  let client = client_coeffs t ~pre ~scratch:out in
  let n = t.ring.Secshare_poly.Ring.n in
  match Secshare_poly.Flat.add_share_into t.tab ~n share ~client ~out with
  | () -> ()
  | exception Invalid_argument msg -> raise (Filter_error ("malformed share: " ^ msg))

(* The product of the children's polynomials, folded through the
   [product]/[spare] ping-pong by [Flat.mul_into]: the same fold order
   and field ops as a [Cyclic.mul] fold (the tables are built from
   them), so the product is bit-identical to it.  Returns the buffer
   holding the result. *)
let product_of_children t pres shares =
  let n = t.ring.Secshare_poly.Ring.n in
  let rec fold acc spare pres shares =
    match (pres, shares) with
    | pre :: pres, share :: shares ->
        reconstruct_into t ~pre share ~out:t.child;
        Secshare_poly.Flat.mul_into t.tab ~n ~a:acc ~b:t.child ~out:spare;
        fold spare acc pres shares
    | _ -> acc
  in
  match (pres, shares) with
  | pre :: pres, share :: shares ->
      reconstruct_into t ~pre share ~out:t.product;
      fold t.product t.spare pres shares
  | _ ->
      Array.fill t.product 0 n 0;
      t.product.(0) <- 1;
      t.product

(* [Cyclic.recover_linear_factor] over the scratch buffers, with the
   same field ops: f = (x - v).g  <=>  v.g = x.g - f coefficient-wise,
   where (x.g)_i = g_(i-1 mod n). *)
let recover_linear_factor (r : Secshare_poly.Ring.t) ~product ~node =
  let n = r.Secshare_poly.Ring.n in
  let target i = r.Secshare_poly.Ring.sub product.((i + n - 1) mod n) node.(i) in
  let pivot = ref 0 in
  while !pivot < n && product.(!pivot) = 0 do
    incr pivot
  done;
  if !pivot = n then Error `Degenerate
  else begin
    let v = r.Secshare_poly.Ring.div (target !pivot) product.(!pivot) in
    let i = ref 0 in
    while !i < n && r.Secshare_poly.Ring.mul v product.(!i) = target !i do
      incr i
    done;
    if !i = n then Ok v else Error `Not_linear
  end

let tag_value t (meta : Protocol.node_meta) =
  let child_metas = children t ~pre:meta.Protocol.pre in
  let child_pres = List.map (fun (m : Protocol.node_meta) -> m.Protocol.pre) child_metas in
  match fetch_shares t (meta.Protocol.pre :: child_pres) with
  | [] -> assert false
  | share :: child_shares -> (
      reconstruct_into t ~pre:meta.Protocol.pre share ~out:t.node;
      let product = product_of_children t child_pres child_shares in
      t.metrics.Metrics.equality_tests <- t.metrics.Metrics.equality_tests + 1;
      t.metrics.Metrics.reconstructions <-
        t.metrics.Metrics.reconstructions + 1 + List.length child_pres;
      t.metrics.Metrics.nodes_examined <- t.metrics.Metrics.nodes_examined + 1;
      match recover_linear_factor t.ring ~product ~node:t.node with
      | Ok value -> Some value
      | Error `Degenerate ->
          t.metrics.Metrics.degenerate_divisions <-
            t.metrics.Metrics.degenerate_divisions + 1;
          None
      | Error `Not_linear -> None)

let equality t meta ~point =
  match tag_value t meta with
  | Some value -> value = point
  | None -> false

let close t = Transport.close t.transport
