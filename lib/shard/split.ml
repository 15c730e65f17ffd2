(* Offline dealer for sharded serving (see split.mli). *)

module Ring = Secshare_poly.Ring
module Node_table = Secshare_store.Node_table
module Page = Secshare_store.Page
module Share = Secshare_core.Share
module Node_prg = Secshare_prg.Node_prg

let bounds_of_table ~shards table =
  if shards < 1 then invalid_arg "Split.bounds_of_table: shards < 1";
  let pres = ref [] in
  Node_table.iter table ~f:(fun row -> pres := row.Page.pre :: !pres);
  let pres = Array.of_list !pres in
  Array.sort compare pres;
  let rows = Array.length pres in
  let bounds = Array.make shards 0 in
  for k = 0 to shards - 1 do
    let target = if rows = 0 then k + 1 else pres.(k * rows / shards) in
    (* keep the windows strictly ascending even when the balanced
       candidates collide (tiny tables) *)
    bounds.(k) <- (if k = 0 then target else max target (bounds.(k - 1) + 1))
  done;
  bounds

let split_table (ring : Ring.t) ~threshold ~shards ~dealer_seed ~source ~sinks =
  if Array.length sinks <> shards then
    invalid_arg
      (Printf.sprintf "Split.split_table: %d sinks for %d shards"
         (Array.length sinks) shards);
  let q = ring.Ring.order and n = ring.Ring.n in
  let prg = Node_prg.create dealer_seed in
  let draws = Array.make (max 0 ((threshold - 1) * n)) 0 in
  Node_table.iter source ~f:(fun row ->
      (* one PRG stream per row, keyed by pre: threshold - 1 dealer
         draws per coefficient, consumed left to right *)
      Node_prg.fill prg ~pre:row.Page.pre ~q draws;
      let next = ref 0 in
      let gen () =
        let v = draws.(!next) in
        incr next;
        v
      in
      let shares =
        Share.shard_server_share ring ~threshold ~shards ~gen row.Page.share
      in
      List.iteri
        (fun i share -> Node_table.insert sinks.(i) { row with Page.share })
        shares);
  let bounds = bounds_of_table ~shards source in
  let rows = Node_table.row_count source in
  Array.init shards (fun i ->
      {
        Manifest.shard_id = i + 1;
        shards;
        threshold;
        p = ring.Ring.characteristic;
        e = ring.Ring.degree;
        rows;
        bounds;
      })

let split_numbers ~threshold ~shards ~dealer_seed ~source ~sinks =
  if Array.length sinks <> shards then
    invalid_arg
      (Printf.sprintf "Split.split_numbers: %d sinks for %d shards"
         (Array.length sinks) shards);
  let module Numeric = Secshare_core.Numeric in
  let xs = List.init shards (fun i -> i + 1) in
  Node_table.iter source ~f:(fun row ->
      (* one dealer stream per row, domain-separated from the
         polynomial dealer's draws *)
      let draws =
        Numeric.dealer_draws ~seed:dealer_seed ~pre:row.Page.pre
          ~count:(threshold - 1)
      in
      let next = ref 0 in
      let gen () =
        let v = draws.(!next) in
        incr next;
        v
      in
      let value = Numeric.of_bytes row.Page.share in
      let shares = Numeric.shard_value ~threshold ~gen ~xs value in
      List.iteri
        (fun i v ->
          Node_table.insert sinks.(i) { row with Page.share = Numeric.to_bytes v })
        shares)
