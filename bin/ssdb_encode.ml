(* CLI: the paper's MySQLEncode — encode a plaintext XML document into
   a server-side database file of polynomial shares.

   As in §5.1, the encoder takes a map file, a seed file and the XML
   document; both secret files can be created on the fly. *)

open Cmdliner

module Mapping = Secshare_core.Mapping
module Encode = Secshare_core.Encode
module Seed = Secshare_prg.Seed

let err fmt = Printf.ksprintf (fun m -> `Error (false, m)) fmt

let load_or_create_seed path =
  if Sys.file_exists path then Seed.load path
  else begin
    let seed = Seed.generate () in
    Seed.save path seed;
    Printf.eprintf "wrote fresh seed to %s\n" path;
    Ok seed
  end

let load_or_create_mapping path ~q ~trie xml_path =
  if Sys.file_exists path then Mapping.load path
  else begin
    match In_channel.with_open_bin xml_path In_channel.input_all with
    | exception Sys_error m -> Error m
    | contents -> (
        match Secshare_xml.Tree.of_string contents with
        | Error m -> Error m
        | Ok tree -> (
            let base = Mapping.of_tree ~q tree in
            let with_alpha =
              match (base, trie) with
              | Ok m, Some _ -> Mapping.with_trie_alphabet m
              | other, _ -> other
            in
            match with_alpha with
            | Error _ as e -> e
            | Ok m ->
                Mapping.save path m;
                Printf.eprintf "wrote map file (%d names) to %s\n" (Mapping.size m) path;
                Ok m))
  end

let nums_path db_path = db_path ^ ".nums"

(* Sharded output: encode into a scratch in-memory table, then deal
   every server share into n Shamir shard tables (threshold t) with a
   fresh dealer seed that is deliberately NOT persisted — holding it
   would let anyone collapse the t-of-n masking back to the
   single-server share.  The numeric column is dealt with the same
   (discarded) seed into one X.shardI.nums file per shard. *)
let encode_sharded ~ring ~mapping ~seed ~trie ~agg_scale ~db_path ~durable
    ~checkpoint_every ~shards ~threshold xml_path =
  let module Node_table = Secshare_store.Node_table in
  let module Manifest = Secshare_shard.Manifest in
  let source = Node_table.create () in
  let num_source = Node_table.create () in
  let result =
    match open_in_bin xml_path with
    | exception Sys_error m -> Error (Encode.Xml_error m)
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            Encode.encode_channel ring ~mapping ~seed ~table:source
              ~numbers:num_source ~agg_scale ?trie ic)
  in
  match result with
  | Error e -> err "encoding failed: %s" (Encode.error_to_string e)
  | Ok stats -> (
      let dealer_seed = Seed.generate () in
      let sinks =
        Array.init shards (fun i ->
            Node_table.create_file ~durable ?checkpoint_every
              (Manifest.shard_db_path db_path (i + 1)))
      in
      let num_sinks =
        Array.init shards (fun i ->
            Node_table.create_file ~durable ?checkpoint_every
              (nums_path (Manifest.shard_db_path db_path (i + 1))))
      in
      let close_all () =
        Array.iter Node_table.close sinks;
        Array.iter Node_table.close num_sinks
      in
      match
        let manifests =
          Secshare_shard.Split.split_table ring ~threshold ~shards ~dealer_seed
            ~source ~sinks
        in
        Secshare_shard.Split.split_numbers ~threshold ~shards ~dealer_seed
          ~source:num_source ~sinks:num_sinks;
        manifests
      with
      | exception Invalid_argument m ->
          close_all ();
          err "sharding failed: %s" m
      | manifests ->
          Array.iteri
            (fun i manifest ->
              let shard_db = Manifest.shard_db_path db_path (i + 1) in
              Manifest.save (Manifest.manifest_path shard_db) manifest)
            manifests;
          close_all ();
          Printf.printf
            "encoded %d nodes (%d elements, %d trie nodes, %d numeric) in %.2f s\n\
             sharded %d-of-%d: %s.shard1..%d (+ .manifest, .nums each), %d partitions\n"
            stats.Encode.nodes stats.Encode.elements stats.Encode.trie_nodes
            stats.Encode.numeric_nodes stats.Encode.duration_seconds threshold shards
            db_path shards
            (Manifest.partitions manifests.(0));
          `Ok 0)

let run xml_path map_path seed_path db_path p e trie_mode durable checkpoint_every
    shards threshold agg_scale =
  let trie =
    match trie_mode with
    | "none" -> Ok None
    | "compressed" -> Ok (Some Secshare_trie.Expand.Compressed)
    | "uncompressed" -> Ok (Some Secshare_trie.Expand.Uncompressed)
    | other -> Error other
  in
  match trie with
  | Error other -> err "unknown --trie mode %S (none|compressed|uncompressed)" other
  | Ok trie -> (
      (* the field is admitted before the seed, map or document is read *)
      match Secshare_core.Database.checked_field_order ~p ~e with
      | Error m -> err "%s" m
      | Ok q ->
      if shards < 1 then err "--shards must be >= 1"
      else if threshold < 1 || threshold > shards then
        err "--threshold %d outside [1, %d]" threshold shards
      else
        if agg_scale < 0 || agg_scale > Mapping.max_agg_scale then
          err "--agg-scale %d outside [0, %d]" agg_scale Mapping.max_agg_scale
        else
        match load_or_create_seed seed_path with
        | Error m -> err "seed: %s" m
        | Ok seed -> (
            match load_or_create_mapping map_path ~q ~trie xml_path with
            | Error m -> err "map: %s" m
            | Ok mapping -> (
                let ring = Secshare_poly.Ring.of_prime_power ~p ~e in
                let status =
                  if shards > 1 then
                    encode_sharded ~ring ~mapping ~seed ~trie ~agg_scale ~db_path
                      ~durable ~checkpoint_every ~shards ~threshold xml_path
                  else
                  let table =
                    Secshare_store.Node_table.create_file ~durable ?checkpoint_every
                      db_path
                  in
                  let numbers =
                    Secshare_store.Node_table.create_file ~durable ?checkpoint_every
                      (nums_path db_path)
                  in
                  let result =
                    match open_in_bin xml_path with
                    | exception Sys_error m -> Error (Encode.Xml_error m)
                    | ic ->
                        Fun.protect
                          ~finally:(fun () -> close_in ic)
                          (fun () ->
                            Encode.encode_channel ring ~mapping ~seed ~table ~numbers
                              ~agg_scale ?trie ic)
                  in
                  match result with
                  | Error e ->
                      Secshare_store.Node_table.close table;
                      Secshare_store.Node_table.close numbers;
                      err "encoding failed: %s" (Encode.error_to_string e)
                  | Ok stats ->
                      let data_bytes = Secshare_store.Node_table.data_bytes table in
                      Secshare_store.Node_table.close table;
                      Secshare_store.Node_table.close numbers;
                      Printf.printf
                        "encoded %d nodes (%d elements, %d trie nodes, %d numeric) \
                         in %.2f s\n\
                         database: %s (%d data bytes), numeric column: %s\n"
                        stats.Encode.nodes stats.Encode.elements stats.Encode.trie_nodes
                        stats.Encode.numeric_nodes stats.Encode.duration_seconds db_path
                        data_bytes (nums_path db_path);
                      `Ok 0
                in
                (* the encoder learned which tags are aggregatable; the
                   client needs those flags, so re-save the map *)
                (match status with
                | `Ok 0 -> Mapping.save map_path mapping
                | _ -> ());
                status)))

let xml_path =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"XML" ~doc:"Input XML document.")

let map_path =
  Arg.(
    value & opt string "secshare.map"
    & info [ "map" ] ~docv:"FILE" ~doc:"Map file (created from the document if missing).")

let seed_path =
  Arg.(
    value & opt string "secshare.seed"
    & info [ "seed" ] ~docv:"FILE" ~doc:"Seed file (generated if missing); keep it secret.")

let db_path =
  Arg.(
    value & opt string "secshare.db"
    & info [ "o"; "db" ] ~docv:"FILE" ~doc:"Output database (server share) file.")

let p_arg =
  Arg.(value & opt int 83 & info [ "p" ] ~docv:"P" ~doc:"Field characteristic (prime).")

let e_arg =
  Arg.(value & opt int 1 & info [ "e" ] ~docv:"E" ~doc:"Field extension degree.")

let trie_arg =
  Arg.(
    value & opt string "none"
    & info [ "trie" ] ~docv:"MODE" ~doc:"Text handling: none, compressed or uncompressed.")

let durable_arg =
  Arg.(
    value & flag
    & info [ "durable" ]
        ~doc:"Write every row through a write-ahead log (crash-safe encoding).")

let checkpoint_every_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "With $(b,--durable): checkpoint the write-ahead log every $(docv) inserts, \
           bounding log growth and recovery time.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Split the output into $(docv) Shamir shard databases \
           ($(b,FILE.shard1)..$(b,FILE.shardN), each with a $(b,.manifest)) instead \
           of one file.  Serve each with ssdb_server and front them with \
           ssdb_router.")

let threshold_arg =
  Arg.(
    value & opt int 1
    & info [ "t"; "threshold" ] ~docv:"T"
        ~doc:
          "With $(b,--shards): any $(docv) shards reconstruct every share (and \
           $(docv)-1 learn nothing); up to N-$(docv) shards may be down without \
           losing answers.")

let agg_scale_arg =
  Arg.(
    value
    & opt int Secshare_core.Numeric.default_scale
    & info [ "agg-scale" ] ~docv:"DIGITS"
        ~doc:
          "Fixed-point fractional digits for the numeric share column backing \
           $(b,sum())/$(b,avg()) queries.  Tags whose every occurrence is a numeric \
           leaf are flagged aggregatable in the map file.")

let cmd =
  let doc = "encode an XML document into an encrypted share database" in
  Cmd.v (Cmd.info "ssdb_encode" ~doc)
    Term.(
      ret
        (const run $ xml_path $ map_path $ seed_path $ db_path $ p_arg $ e_arg $ trie_arg
       $ durable_arg $ checkpoint_every_arg $ shards_arg $ threshold_arg
       $ agg_scale_arg))

let () = exit (Cmd.eval' cmd)
