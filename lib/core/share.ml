module Cyclic = Secshare_poly.Cyclic

let client ring ~seed ~pre = Secshare_prg.Node_prg.client_poly ~ring ~seed ~pre
let server_share ring ~seed ~pre f = Cyclic.sub ring f (client ring ~seed ~pre)
let reconstruct ring ~seed ~pre ~server = Cyclic.add ring (client ring ~seed ~pre) server
let combine_evaluations (ring : Secshare_poly.Ring.t) ~client ~server =
  ring.Secshare_poly.Ring.add client server

(* Both filters evaluate shares only through the flat kernels, whose
   byte op-tables exist exactly for q <= 256; every entry point admits
   only such fields ([Database.checked_field_order]). *)
let kernel_table (ring : Secshare_poly.Ring.t) =
  match ring.Secshare_poly.Ring.table with
  | Some tab -> tab
  | None ->
      invalid_arg
        (Printf.sprintf "field order %d has no kernel tables (q <= 256 required)"
           ring.Secshare_poly.Ring.order)

(* --- Shamir t-of-n re-sharing of the server share (lib/shard) ---

   The 2-party split above is unchanged: client + server = f.  Sharded
   serving re-shares the SERVER half coefficient-wise across n shard
   servers so any t reconstruct it and t-1 learn nothing beyond what
   one server already held (a uniform masking of f).  Packing is
   byte-compatible with the single-server share format: every shard
   table row is a valid [Codec]-packed coefficient vector, so the flat
   kernels evaluate shard shares unchanged. *)

module Shamir = Secshare_poly.Shamir
module Codec = Secshare_poly.Codec
module Ring = Secshare_poly.Ring

let shard_xs ~shards = List.init shards (fun i -> i + 1)

let check_shards (ring : Ring.t) ~threshold ~shards =
  if shards < 1 then invalid_arg "Share.shard: shards < 1";
  if threshold < 1 || threshold > shards then
    invalid_arg
      (Printf.sprintf "Share.shard: threshold %d outside [1, %d]" threshold shards);
  if shards >= ring.Ring.order then
    invalid_arg
      (Printf.sprintf
         "Share.shard: %d shards need %d distinct nonzero x-coordinates but the \
          field has only %d"
         shards shards
         (ring.Ring.order - 1))

let shard_server_share (ring : Ring.t) ~threshold ~shards ~gen packed =
  check_shards ring ~threshold ~shards;
  let q = ring.Ring.order and n = ring.Ring.n in
  let coeffs = Codec.unpack ~q ~n packed in
  Shamir.share_vector ring ~threshold ~xs:(shard_xs ~shards) ~gen coeffs
  |> List.map (Codec.pack ~q)

let shard_lambdas (ring : Ring.t) ~xs = Shamir.lambdas_at_zero ring ~xs

let reconstruct_packed (ring : Ring.t) ~lambdas packed_shares =
  let q = ring.Ring.order and n = ring.Ring.n in
  Shamir.combine_vectors ring ~lambdas (List.map (Codec.unpack ~q ~n) packed_shares)
  |> Codec.pack ~q

let combine_threshold_evaluations (ring : Ring.t) ~lambdas values =
  Shamir.combine ring ~lambdas values
