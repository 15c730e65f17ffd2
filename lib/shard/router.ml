(* The shard router (see router.mli).

   One invariant carries the whole file: shard scans are
   DETERMINISTIC.  Every shard stores the same rows in the same order
   (only the share bytes differ), so issuing identical sub-targets
   with identical batch sizes to the [threshold] members of a group
   yields identical metadata streams — the router zip-merges them row
   by row, folds the evaluations with the group's Lagrange
   multipliers, and any metadata mismatch is a hard "streams diverged"
   error rather than a silent wrong answer.

   Failure discipline: a transport-level failure (probed by [Ping])
   marks the shard dead and the work fails over; an application error
   from a live shard propagates to the client untouched.  Mid-scan
   failover reopens the active sub-target on a fresh group and
   skip-drains the rows already merged. *)

module Protocol = Secshare_rpc.Protocol
module Transport = Secshare_rpc.Transport
module Ring = Secshare_poly.Ring
module Share = Secshare_core.Share
module Numeric = Secshare_core.Numeric
module Cursor_table = Secshare_core.Cursor_table
module Obs = Secshare_obs

exception Unavailable of string
exception App_error of string
exception Diverged of string
exception Member_down

type shard = {
  id : int;  (* 1-based Shamir x-coordinate *)
  transport : Transport.t;
  mutable alive : bool;
  calls : Obs.Registry.counter;
}

(* One member of the group serving the active scan sub-target. *)
type member = { shard : shard; mutable remote : int option }

type active = {
  target : Protocol.scan_target;
  partition : int;
  mutable members : member list;
  mutable lambdas : int list;
  mutable opened : bool;
  mutable exhausted : bool;
  mutable merged : int;  (* rows already combined and handed out *)
  mutable skip : int;  (* rows to discard after a failover reopen *)
}

type scan_state = {
  points : int list;
  mutable pending : (int * Protocol.scan_target) list;
      (* (partition, sub-target) pieces not yet opened, in emission order *)
  mutable active : active option;
}

type t = {
  ring : Ring.t;
  manifest : Manifest.t;  (* group summary, shard_id = 0 *)
  members_by_id : shard array;  (* shard id i at index i - 1 *)
  cursors : scan_state Cursor_table.t;
  failovers : Obs.Registry.counter;
  live_gauge : Obs.Registry.gauge;
}

let manifest t = t.manifest
let shards t = t.manifest.Manifest.shards
let threshold t = t.manifest.Manifest.threshold

let live_shards t =
  Array.fold_left (fun acc s -> if s.alive then acc + 1 else acc) 0 t.members_by_id

let mark_dead t shard =
  if shard.alive then begin
    shard.alive <- false;
    Obs.Registry.inc t.failovers;
    Obs.Registry.gauge_set t.live_gauge (live_shards t);
    (* topology only: never query content *)
    Obs.Events.info "router: shard %d marked dead (%d of %d live, threshold %d)"
      shard.id (live_shards t) (shards t) (threshold t)
  end

let kill_shard t id =
  if id >= 1 && id <= Array.length t.members_by_id then
    mark_dead t t.members_by_id.(id - 1)

(* One call to one shard.  An [Error_msg] reply is ambiguous — the
   transport wraps its own failures in it too — so probe with a [Ping]:
   a live shard answering the probe means the error was the
   application's and must propagate; a dead probe means the shard is
   gone and the caller should fail over. *)
let call_shard t shard request =
  Obs.Registry.inc shard.calls;
  match Transport.call shard.transport request with
  | Protocol.Error_msg msg -> (
      match Transport.call shard.transport Protocol.Ping with
      | Protocol.Pong -> raise (App_error msg)
      | _ ->
          mark_dead t shard;
          raise Member_down)
  | response -> response

(* The group of [threshold] live shards serving a partition: walk the
   ring of shards from [partition mod n] so different partitions land
   on different (rotated) groups — the load-spreading overlay. *)
let group_for t ~partition =
  let n = Array.length t.members_by_id in
  let needed = threshold t in
  let start = ((partition mod n) + n) mod n in
  let rec collect acc count i =
    if count = needed then List.rev acc
    else if i = n then
      raise
        (Unavailable
           (Printf.sprintf "%d of %d shards live but the threshold is %d"
              (live_shards t) n needed))
    else
      let s = t.members_by_id.((start + i) mod n) in
      if s.alive then collect (s :: acc) (count + 1) (i + 1)
      else collect acc count (i + 1)
  in
  collect [] 0 0

let lambdas_of t group = Share.shard_lambdas t.ring ~xs:(List.map (fun s -> s.id) group)

(* Run [f] against a fresh group, retrying with the survivors whenever
   a member dies mid-flight.  Only for stateless (idempotent) work —
   scans carry their own failover. *)
let rec on_group : 'a. t -> partition:int -> (shard list -> int list -> 'a) -> 'a =
 fun t ~partition f ->
  let group = group_for t ~partition in
  match f group (lambdas_of t group) with
  | v -> v
  | exception Member_down -> on_group t ~partition f

let rec on_one : 'a. t -> partition:int -> (shard -> 'a) -> 'a =
 fun t ~partition f ->
  match group_for t ~partition with
  | [] -> assert false (* threshold >= 1 *)
  | s :: _ -> ( match f s with v -> v | exception Member_down -> on_one t ~partition f)

(* --- combining --- *)

let rec transpose = function
  | [] -> []
  | [] :: _ -> []
  | rows -> List.map List.hd rows :: transpose (List.map List.tl rows)

let combine_points t ~lambdas member_vals =
  List.map
    (fun column -> Share.combine_threshold_evaluations t.ring ~lambdas column)
    (transpose member_vals)

(* --- scan sub-targets --- *)

let partition_of t pre = Manifest.partition_of t.manifest ~pre

(* Group consecutive items sharing a key, preserving order. *)
let runs ~key items =
  List.fold_left
    (fun acc item ->
      let k = key item in
      match acc with
      | (k', run) :: rest when k' = k -> (k', item :: run) :: rest
      | _ -> (k, [ item ]) :: acc)
    [] items
  |> List.rev_map (fun (k, run) -> (k, List.rev run))

(* Cut one bounded range at the partition boundaries.  Exact because
   subtree ranges are pre-contiguous and the below-post stop is
   monotone in pre: pieces past the true stop simply emit nothing. *)
let split_bounded t (from_pre, until_pre, below_post) =
  let bounds = t.manifest.Manifest.bounds in
  let m = Array.length bounds in
  let k0 = Manifest.partition_of t.manifest ~pre:from_pre in
  let rec go k acc =
    if k >= m || bounds.(k) >= until_pre then List.rev acc
    else begin
      let lo = max from_pre bounds.(k) in
      let hi = if k + 1 < m then min until_pre bounds.(k + 1) else until_pre in
      let acc = if lo < hi then (k, (lo, hi, below_post)) :: acc else acc in
      go (k + 1) acc
    end
  in
  (* the first partition's window starts below bounds.(k0) only for
     pres before bounds.(0); from_pre itself is always inside k0 *)
  let first_lo = from_pre in
  let first_hi =
    if k0 + 1 < m then min until_pre bounds.(k0 + 1) else until_pre
  in
  let first = if first_lo < first_hi then [ (k0, (first_lo, first_hi, below_post)) ] else [] in
  first @ go (k0 + 1) []

let sub_targets t target =
  match target with
  | Protocol.Children_of parents ->
      runs parents ~key:(fun parent -> partition_of t parent)
      |> List.map (fun (partition, run) -> (partition, Protocol.Children_of run))
  | Protocol.Pre_ranges ranges ->
      (* normalise exactly like the single server, then split *)
      Secshare_core.Server_filter.dedup_ranges ranges
      |> List.concat_map (fun (from_pre, below_post) ->
             split_bounded t (from_pre, max_int, below_post))
      |> runs ~key:fst
      |> List.map (fun (partition, run) ->
             (partition, Protocol.Bounded_pre_ranges (List.map snd run)))
  | Protocol.Bounded_pre_ranges ranges ->
      List.sort compare ranges
      |> List.filter (fun (a, u, _) -> a < u)
      |> List.concat_map (fun piece -> split_bounded t piece)
      |> runs ~key:fst
      |> List.map (fun (partition, run) ->
             (partition, Protocol.Bounded_pre_ranges (List.map snd run)))

(* Unbounded pieces carry [max_int] internally; the wire caps a u32.
   Pres are below 2^31, so the cap is still past every row. *)
let max_wire_pre = 0xFFFFFFFF

let wire_target = function
  | Protocol.Bounded_pre_ranges pieces ->
      Protocol.Bounded_pre_ranges
        (List.map
           (fun (a, u, b) -> (a, min u max_wire_pre, min b max_wire_pre))
           pieces)
  | target -> target

(* --- the lockstep scan merge --- *)

let fresh_active t (partition, target) =
  let group = group_for t ~partition in
  {
    target;
    partition;
    members = List.map (fun s -> { shard = s; remote = None }) group;
    lambdas = lambdas_of t group;
    opened = false;
    exhausted = false;
    merged = 0;
    skip = 0;
  }

let close_active_members active =
  List.iter
    (fun m ->
      (match m.remote with
      | Some c -> (
          (* best effort: the shard may be the one that just died *)
          try ignore (Transport.call m.shard.transport (Protocol.Cursor_close c))
          with _ -> ())
      | None -> ());
      m.remote <- None)
    active.members

let failover_active t active =
  close_active_members active;
  let group = group_for t ~partition:active.partition in
  active.members <- List.map (fun s -> { shard = s; remote = None }) group;
  active.lambdas <- lambdas_of t group;
  active.opened <- false;
  active.exhausted <- false;
  active.skip <- active.merged

(* One lockstep round: the same request size to every member, metas
   zip-checked, values folded with the lambdas. *)
let pull_round t scan active ~req =
  let per_member =
    List.map
      (fun m ->
        let request =
          if not active.opened then
            Protocol.Scan_eval
              { target = wire_target active.target; points = scan.points; max_items = req }
          else
            match m.remote with
            | Some c -> Protocol.Scan_next { cursor = c; max_items = req }
            | None -> raise (Diverged "shard scan cursor missing mid-stream")
        in
        match call_shard t m.shard request with
        | Protocol.Scan_batch { rows; cursor } ->
            m.remote <- cursor;
            (m, Array.of_list rows)
        | response ->
            raise
              (Diverged
                 (Format.asprintf "unexpected scan reply from shard %d: %a" m.shard.id
                    Protocol.pp_response response)))
      active.members
  in
  active.opened <- true;
  let arrays = List.map snd per_member in
  let first =
    match arrays with [] -> raise (Unavailable "scan group is empty") | a :: _ -> a
  in
  List.iter
    (fun a ->
      if Array.length a <> Array.length first then
        raise (Diverged "shard scan streams diverged (row counts differ)"))
    arrays;
  let exhausted_members = List.filter (fun (m, _) -> m.remote = None) per_member in
  let exhausted = List.length exhausted_members = List.length per_member in
  if (not exhausted) && exhausted_members <> [] then
    raise (Diverged "shard scan streams diverged (cursor state differs)");
  if exhausted then active.exhausted <- true;
  Array.to_list
    (Array.mapi
       (fun i (meta, _) ->
         let member_vals =
           List.map
             (fun a ->
               let m, values = a.(i) in
               if m <> meta then
                 raise (Diverged "shard scan streams diverged (row metadata differs)");
               values)
             arrays
         in
         (meta, combine_points t ~lambdas:active.lambdas member_vals))
       first)

let scan_more scan =
  (match scan.active with Some a -> not a.exhausted | None -> false)
  || scan.pending <> []

(* Collect up to [want] combined rows, advancing through sub-targets
   and failing over dead members as needed. *)
let rec fill t scan ~want acc =
  if want <= 0 then List.concat (List.rev acc)
  else
    match scan.active with
    | None -> (
        match scan.pending with
        | [] -> List.concat (List.rev acc)
        | sub :: rest ->
            scan.pending <- rest;
            scan.active <- Some (fresh_active t sub);
            fill t scan ~want acc)
    | Some active ->
        if active.exhausted then begin
          scan.active <- None;
          fill t scan ~want acc
        end
        else begin
          let req = if active.skip > 0 then min active.skip 512 else want in
          match pull_round t scan active ~req with
          | rows when active.skip > 0 ->
              active.skip <- active.skip - List.length rows;
              fill t scan ~want acc
          | rows ->
              active.merged <- active.merged + List.length rows;
              fill t scan ~want:(want - List.length rows) (rows :: acc)
          | exception Member_down ->
              failover_active t active;
              fill t scan ~want acc
        end

(* A scan leaving the cursor table releases its shard member cursors.
   The table calls this after its lock is released, so no network call
   ever runs under it. *)
let close_scan_remotes scan =
  scan.pending <- [];
  match scan.active with
  | Some active ->
      close_active_members active;
      scan.active <- None
  | None -> ()

let open_cursors t = Cursor_table.length t.cursors

(* --- grouped point operations --- *)

(* Split a batch at partition boundaries, keeping every result at its
   caller-visible index. *)
let eval_batch t ~pres ~point =
  let results = Array.make (List.length pres) 0 in
  let chunks = runs (List.mapi (fun i pre -> (i, pre)) pres) ~key:(fun (_, pre) -> partition_of t pre) in
  List.iter
    (fun (partition, chunk) ->
      let sub_pres = List.map snd chunk in
      let combined =
        on_group t ~partition (fun group lambdas ->
            let per_member =
              List.map
                (fun s ->
                  match call_shard t s (Protocol.Eval_batch { pres = sub_pres; point }) with
                  | Protocol.Values vs when List.length vs = List.length sub_pres -> vs
                  | Protocol.Values _ ->
                      raise (Diverged "eval batch reply has the wrong arity")
                  | response ->
                      raise
                        (Diverged
                           (Format.asprintf "unexpected eval batch reply: %a"
                              Protocol.pp_response response)))
                group
            in
            combine_points t ~lambdas per_member)
      in
      List.iter2 (fun (i, _) v -> results.(i) <- v) chunk combined)
    chunks;
  Protocol.Values (Array.to_list results)

let shares_batch t pres =
  let results = Array.make (List.length pres) Bytes.empty in
  let chunks = runs (List.mapi (fun i pre -> (i, pre)) pres) ~key:(fun (_, pre) -> partition_of t pre) in
  List.iter
    (fun (partition, chunk) ->
      let sub_pres = List.map snd chunk in
      let combined =
        on_group t ~partition (fun group lambdas ->
            let per_member =
              List.map
                (fun s ->
                  match call_shard t s (Protocol.Shares sub_pres) with
                  | Protocol.Shares_data bs when List.length bs = List.length sub_pres ->
                      bs
                  | Protocol.Shares_data _ ->
                      raise (Diverged "shares reply has the wrong arity")
                  | response ->
                      raise
                        (Diverged
                           (Format.asprintf "unexpected shares reply: %a"
                              Protocol.pp_response response)))
                group
            in
            List.map
              (fun column -> Share.reconstruct_packed t.ring ~lambdas column)
              (transpose per_member))
      in
      List.iter2 (fun (i, _) b -> results.(i) <- b) chunk combined)
    chunks;
  Protocol.Shares_data (Array.to_list results)

(* --- aggregation --- *)

(* Numeric shares are Shamir-dealt in F_M, not the polynomial ring, so
   per-shard partial sums recombine with F_M Lagrange-at-zero weights.
   The fold is linear: any [threshold] live shards can answer a
   partition — including a group formed by mid-flight failover — and
   partitions then add up in F_M. *)
let agg_eval t pres =
  let chunks = runs pres ~key:(fun pre -> partition_of t pre) in
  let total_count = ref 0 and total_sum = ref 0 in
  List.iter
    (fun (partition, sub_pres) ->
      let count, sum =
        on_group t ~partition (fun group _poly_lambdas ->
            let lambdas = Numeric.lambdas_at_zero (List.map (fun s -> s.id) group) in
            let per_member =
              List.map
                (fun s ->
                  match call_shard t s (Protocol.Agg_eval { pres = sub_pres }) with
                  | Protocol.Agg_partial { count; sum } -> (count, sum)
                  | response ->
                      raise
                        (Diverged
                           (Format.asprintf "unexpected aggregate reply from shard %d: %a"
                              s.id Protocol.pp_response response)))
                group
            in
            let expected = List.length sub_pres in
            List.iter
              (fun (count, _) ->
                if count <> expected then
                  raise (Diverged "aggregate partials diverged (row counts differ)"))
              per_member;
            (expected, Numeric.combine ~lambdas (List.map snd per_member)))
      in
      total_count := !total_count + count;
      total_sum := Numeric.add !total_sum sum)
    chunks;
  Protocol.Agg_partial { count = !total_count; sum = !total_sum }

(* --- dispatch --- *)

let forward_one t ~partition request = on_one t ~partition (fun s -> call_shard t s request)

let dispatch t ~scope request =
  match request with
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Manifest -> Protocol.Manifest_data (Manifest.to_info t.manifest)
  | Protocol.Root | Protocol.Table_stats -> forward_one t ~partition:0 request
  | Protocol.Children parent -> forward_one t ~partition:(partition_of t parent) request
  | Protocol.Parent pre -> forward_one t ~partition:(partition_of t pre) request
  | Protocol.Eval_batch { pres; point } -> eval_batch t ~pres ~point
  | Protocol.Shares pres -> shares_batch t pres
  | Protocol.Agg_eval { pres } -> agg_eval t pres
  | Protocol.Cursor_close cursor ->
      Cursor_table.remove t.cursors cursor Client_close;
      Protocol.Pong
  | Protocol.Scan_eval { target; points; max_items } ->
      let scan = { points; pending = sub_targets t target; active = None } in
      let rows = fill t scan ~want:(max 1 max_items) [] in
      if scan_more scan then
        let id = Cursor_table.add ?scope t.cursors scan in
        Protocol.Scan_batch { rows; cursor = Some id }
      else Protocol.Scan_batch { rows; cursor = None }
  | Protocol.Scan_next { cursor; max_items } -> (
      match Cursor_table.use t.cursors cursor Fun.id with
      | Some scan ->
          let rows = fill t scan ~want:(max 1 max_items) [] in
          if scan_more scan then Protocol.Scan_batch { rows; cursor = Some cursor }
          else begin
            Cursor_table.remove t.cursors cursor Drained;
            Protocol.Scan_batch { rows; cursor = None }
          end
      | None -> Protocol.Error_msg (Printf.sprintf "unknown cursor %d" cursor))

let respond t ~scope request =
  match dispatch t ~scope request with
  | response -> response
  | exception App_error msg -> Protocol.Error_msg msg
  | exception Unavailable msg -> Protocol.Error_msg ("unavailable: " ^ msg)
  | exception Diverged msg -> Protocol.Error_msg ("router: " ^ msg)

let handler t request = respond t ~scope:None request

(* session scope: cursors this connection opened close with it *)
let connection t =
  let scope = Cursor_table.scope t.cursors in
  (respond t ~scope:(Some scope), fun () -> Cursor_table.close_scope t.cursors scope)

(* --- construction --- *)

let obs_failovers =
  Obs.Registry.counter ~help:"Shards the router marked dead after a transport failure."
    "ssdb_router_failovers_total"

let obs_live_gauge =
  Obs.Registry.gauge ~help:"Shards the router currently considers live."
    "ssdb_router_live_shards"

let shard_calls_counter id =
  Obs.Registry.counter ~help:"Requests the router sent to each shard."
    ~labels:[ ("shard", string_of_int id) ]
    "ssdb_router_shard_calls_total"

let of_transports (ring : Ring.t) ?(max_cursors = 1024) transports =
  let p = ring.Ring.characteristic and e = ring.Ring.degree in
  let rec handshake acc = function
    | [] -> Ok (List.rev acc)
    | transport :: rest -> (
        match Transport.call transport Protocol.Manifest with
        | Protocol.Manifest_data info ->
            handshake ((transport, Manifest.of_info ~p ~e info) :: acc) rest
        | Protocol.Error_msg msg -> Error ("manifest handshake: " ^ msg)
        | _ -> Error "manifest handshake: unexpected response")
  in
  match transports with
  | [] -> Error "router: no shard transports"
  | _ -> (
      match handshake [] transports with
      | Error _ as e -> e
      | Ok pairs -> (
          match Manifest.group_consistent (List.map snd pairs) with
          | Error _ as e -> e
          | Ok summary ->
              let n = summary.Manifest.shards in
              if List.length pairs <> n then
                Error
                  (Printf.sprintf
                     "router: %d transports for a %d-shard deployment (need all %d)"
                     (List.length pairs) n n)
              else if n >= ring.Ring.order then
                Error
                  (Printf.sprintf
                     "router: %d shards need %d nonzero field points but the field \
                      has only %d"
                     n n (ring.Ring.order - 1))
              else begin
                let members = Array.make n None in
                List.iter
                  (fun (transport, (m : Manifest.t)) ->
                    members.(m.Manifest.shard_id - 1) <-
                      Some
                        {
                          id = m.Manifest.shard_id;
                          transport;
                          alive = true;
                          calls = shard_calls_counter m.Manifest.shard_id;
                        })
                  pairs;
                let members_by_id = Array.map Option.get members in
                Obs.Registry.gauge_set obs_live_gauge n;
                Ok
                  {
                    ring;
                    manifest = summary;
                    members_by_id;
                    cursors =
                      Cursor_table.create ~max_cursors
                        ~on_remove:(fun _ scan _ -> close_scan_remotes scan)
                        ();
                    failovers = obs_failovers;
                    live_gauge = obs_live_gauge;
                  }
              end))

let connect ?policy ~p ~e ?max_cursors paths =
  let rec open_all acc = function
    | [] -> Ok (List.rev acc)
    | path :: rest -> (
        match Transport.socket ?policy path with
        | Ok transport -> open_all (transport :: acc) rest
        | Error msg ->
            List.iter Transport.close acc;
            Error (Printf.sprintf "shard %s: %s" path msg))
  in
  (* the field is admitted before any socket is opened *)
  match Secshare_core.Database.checked_field_order ~p ~e with
  | Error _ as e -> e
  | Ok _ -> (
      match open_all [] paths with
      | Error _ as e -> e
      | Ok transports -> (
          let ring = Ring.of_prime_power ~p ~e in
          match of_transports ring ?max_cursors transports with
          | Ok _ as ok -> ok
          | Error _ as e ->
              List.iter Transport.close transports;
              e))

let close t =
  Cursor_table.close_all t.cursors;
  Array.iter (fun s -> Transport.close s.transport) t.members_by_id
