module Protocol = Secshare_rpc.Protocol
module Transport = Secshare_rpc.Transport
module Cyclic = Secshare_poly.Cyclic
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
  seed : Secshare_prg.Seed.t;
  tab : Secshare_field.Table.t;  (** the ring's flat op-tables *)
  transport : Transport.t;
  scan_batch : int;
  metrics : Metrics.t;
  share_cache : (int, Cyclic.t) Lru.t option;
      (* pre -> regenerated client polynomial; [Cyclic] ops are pure,
         so cached polynomials can never be mutated through use *)
  eval_cache : (int * int, int) Lru.t option;
      (* (pre, point) -> client evaluation, so a repeated query skips
         even the O(degree) Horner pass *)
}

let create ring ~seed ?(scan_batch = 256) ?(share_cache = 4096) transport =
  {
    ring;
    seed;
    tab = Share.kernel_table ring;
    transport;
    scan_batch = max 1 scan_batch;
    metrics = Metrics.create ();
    share_cache = (if share_cache <= 0 then None else Some (Lru.create share_cache));
    eval_cache = (if share_cache <= 0 then None else Some (Lru.create (4 * share_cache)));
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

(* Regenerate (or recall) the client polynomial for [pre]. *)
let client_poly t ~pre =
  match t.share_cache with
  | None -> Share.client t.ring ~seed:t.seed ~pre
  | Some cache -> (
      match Lru.find cache pre with
      | Some poly ->
          Obs.Registry.inc obs_cache_hits;
          poly
      | None ->
          Obs.Registry.inc obs_cache_misses;
          let poly = Share.client t.ring ~seed:t.seed ~pre in
          let before = (Lru.stats cache).Lru.evictions in
          Lru.add cache ~key:pre ~value:poly;
          Obs.Registry.inc ~by:((Lru.stats cache).Lru.evictions - before)
            obs_cache_evictions;
          poly)

(* Evaluate a regenerated client polynomial: the flat Horner kernel
   over the cached coefficient buffer — no unpacking, no closure
   calls.  The zero point is rejected by [Flat.point_row]. *)
let eval_poly t poly point =
  Secshare_poly.Flat.eval_coeffs t.tab
    ~mul_row:
      (Secshare_poly.Flat.point_row t.tab
         ~point:(t.ring.Secshare_poly.Ring.normalize point))
    (Cyclic.view poly)

let client_eval t ~pre ~point =
  match t.eval_cache with
  | None -> eval_poly t (client_poly t ~pre) point
  | Some cache ->
      Lru.find_or_add cache (pre, point) ~compute:(fun _ ->
          eval_poly t (client_poly t ~pre) point)

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
  List.fold_left
    (fun acc pre -> Numeric.add acc (Numeric.blind ~seed:t.seed ~pre))
    0 pres

let fetch_shares t pres =
  match call t (Protocol.Shares pres) with
  | Protocol.Shares_data shares ->
      if List.length shares <> List.length pres then
        raise (Filter_error "Shares arity mismatch");
      shares
  | response -> protocol_error "Shares" response

(* The equality test's product of child polynomials: two scratch
   buffers ping-pong through [Flat.mul_into], so an arbitrarily wide
   node costs exactly two allocations.  Same fold order and field ops
   as a [Cyclic.mul] fold (the tables are built from them), so the
   product is bit-identical to it. *)
let product_of_children t child_polys =
  match child_polys with
  | [] -> Cyclic.one t.ring
  | first :: rest ->
      let n = t.ring.Secshare_poly.Ring.n in
      let acc = ref (Array.copy (Cyclic.view first)) in
      let scratch = ref (Array.make n 0) in
      List.iter
        (fun p ->
          Secshare_poly.Flat.mul_into t.tab ~n ~a:!acc ~b:(Cyclic.view p)
            ~out:!scratch;
          let swap = !acc in
          acc := !scratch;
          scratch := swap)
        rest;
      Cyclic.of_int_array t.ring !acc

let reconstruct t ~pre share_bytes =
  let server = Secshare_poly.Codec.unpack_cyclic t.ring share_bytes in
  (* client + server, with the client half served from the cache *)
  Cyclic.add t.ring (client_poly t ~pre) server

let tag_value t (meta : Protocol.node_meta) =
  let child_metas = children t ~pre:meta.Protocol.pre in
  let pres =
    meta.Protocol.pre :: List.map (fun (m : Protocol.node_meta) -> m.Protocol.pre) child_metas
  in
  let shares = fetch_shares t pres in
  let polys = List.map2 (fun pre share -> reconstruct t ~pre share) pres shares in
  t.metrics.Metrics.equality_tests <- t.metrics.Metrics.equality_tests + 1;
  t.metrics.Metrics.reconstructions <-
    t.metrics.Metrics.reconstructions + List.length polys;
  t.metrics.Metrics.nodes_examined <- t.metrics.Metrics.nodes_examined + 1;
  match polys with
  | [] -> assert false
  | node_poly :: child_polys -> (
      let product = product_of_children t child_polys in
      match Cyclic.recover_linear_factor t.ring ~product ~node:node_poly with
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
