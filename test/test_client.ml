(* The client filter's share kernel against its oracles: the in-scratch
   equality path against [Cyclic], malformed share replies against the
   typed-error contract, and the numeric blinds against the per-seed
   reader they now share. *)

module Cyclic = Secshare_poly.Cyclic
module Codec = Secshare_poly.Codec
module Ring = Secshare_poly.Ring
module Protocol = Secshare_rpc.Protocol
module Transport = Secshare_rpc.Transport
module Client_filter = Secshare_core.Client_filter
module Share = Secshare_core.Share
module DB = Secshare_core.Database
module QC = Secshare_core.Query_common

let check = Alcotest.check
let seed = Test_support.test_seed

(* --- the equality path against the Cyclic oracle --- *)

type shape =
  | Linear  (** node = (x - v) * product: recovers v *)
  | Random  (** an unrelated node: [Not_linear] *)
  | Zero_child  (** one child is 0, so the product is: [Degenerate] *)
  | Monomials  (** children x^j: the product's first nonzero is not x^0 *)

(* A node at pre 0 with children at pres 1..c, served from a handler
   that holds only the packed server halves. *)
let serve ring polys =
  let shares =
    Array.mapi
      (fun pre f -> Codec.pack_cyclic ring (Share.server_share ring ~seed ~pre f))
      polys
  in
  let meta pre = { Protocol.pre; post = pre; parent = (if pre = 0 then -1 else 0) } in
  let handler = function
    | Protocol.Children 0 ->
        Protocol.Nodes (List.init (Array.length polys - 1) (fun i -> meta (i + 1)))
    | Protocol.Shares pres -> Protocol.Shares_data (List.map (fun pre -> shares.(pre)) pres)
    | request ->
        Protocol.Error_msg (Format.asprintf "unexpected %a" Protocol.pp_request request)
  in
  (Transport.local ~handler, shares, meta 0)

(* The reference path: reconstruct through [Cyclic.add], fold the
   children with [Cyclic.mul], divide with [recover_linear_factor]. *)
let oracle ring shares =
  let polys =
    Array.to_list
      (Array.mapi
         (fun pre share ->
           Cyclic.add ring (Share.client ring ~seed ~pre) (Codec.unpack_cyclic ring share))
         shares)
  in
  let node = List.hd polys in
  let product = List.fold_left (Cyclic.mul ring) (Cyclic.one ring) (List.tl polys) in
  Cyclic.recover_linear_factor ring ~product ~node

let gen_case =
  QCheck2.Gen.(
    quad (oneofl [ `F83; `F81 ]) (int_range 0 8)
      (oneofl [ Linear; Random; Zero_child; Monomials ])
      (pair (int_range 0 1_000_000) bool))

let prop_equality_matches_oracle =
  QCheck2.Test.make ~count:100 ~name:"tag_value = Cyclic oracle" gen_case
    (fun (field, children, shape, (rng_seed, cached)) ->
      let ring =
        match field with
        | `F83 -> Ring.of_prime ~p:83
        | `F81 -> Ring.of_prime_power ~p:3 ~e:4
      in
      let q = ring.Ring.order and n = ring.Ring.n in
      let rng = Secshare_prg.Xoshiro.create (Int64.of_int rng_seed) in
      let draw () = Secshare_prg.Xoshiro.next_int rng ~bound:q in
      let random () = Cyclic.random ring ~gen:draw in
      let monomial () =
        let c = Array.make n 0 in
        c.(Secshare_prg.Xoshiro.next_int rng ~bound:n) <- 1 + draw () mod (q - 1);
        Cyclic.of_int_array ring c
      in
      let kids =
        List.init children (fun i ->
            match shape with
            | Zero_child when i = children - 1 -> Cyclic.zero ring
            | Monomials -> monomial ()
            | _ -> random ())
      in
      let kids = if shape = Zero_child && children = 0 then [ Cyclic.zero ring ] else kids in
      let product = List.fold_left (Cyclic.mul ring) (Cyclic.one ring) kids in
      let node =
        match shape with
        | Linear | Monomials -> Cyclic.mul_linear ring ~root:(draw ()) product
        | Random | Zero_child -> random ()
      in
      let transport, shares, meta = serve ring (Array.of_list (node :: kids)) in
      let filter =
        Client_filter.create ring ~seed ~share_cache:(if cached then 16 else 0) transport
      in
      let got = Client_filter.tag_value filter meta in
      let metrics = Client_filter.metrics filter in
      let expect = oracle ring shares in
      (match (shape, expect) with
      | Zero_child, Error `Degenerate | Random, Error `Not_linear -> ()
      | (Linear | Monomials), Ok _ -> ()
      | Random, Ok _ -> () (* a random node may be linear by chance *)
      | _ -> QCheck2.Test.fail_report "the case does not have its intended shape");
      let degenerate = match expect with Error `Degenerate -> 1 | _ -> 0 in
      got = Result.to_option expect
      && metrics.Secshare_core.Metrics.degenerate_divisions = degenerate
      && metrics.Secshare_core.Metrics.reconstructions = List.length kids + 1)

(* --- malformed Shares replies --- *)

(* A strict query through a [Transport.local] around the real server
   handler whose [Shares_data] replies [corrupt] rewrites. *)
let strict_query_with ~corrupt =
  let tree =
    Secshare_xml.Tree.(
      element "alpha" [ element "beta" [ element "gamma" [] ]; element "beta" [] ])
  in
  let db = Test_support.db_of_tree tree in
  let server = Secshare_core.Server_filter.create (DB.ring db) (DB.table db) in
  let rewritten = ref 0 in
  let handler request =
    match Secshare_core.Server_filter.handler server request with
    | Protocol.Shares_data (first :: rest) ->
        incr rewritten;
        Protocol.Shares_data (corrupt first :: rest)
    | response -> response
  in
  let remote =
    Result.get_ok
      (DB.of_transport ~p:83 ~e:1 ~mapping:(DB.mapping db) ~seed:(DB.seed db)
         (Transport.local ~handler))
  in
  let result = DB.query ~engine:DB.Simple ~strictness:QC.Strict remote "/alpha/beta" in
  DB.close remote;
  DB.close db;
  check Alcotest.bool "a Shares reply was rewritten" true (!rewritten > 0);
  result

let expect_filter_error what = function
  | Error msg ->
      check Alcotest.bool
        (Printf.sprintf "%s is a filter error: %s" what msg)
        true
        (String.length msg > 7 && String.sub msg 0 7 = "filter:")
  | Ok _ -> Alcotest.failf "%s: a malformed share was answered" what

let test_out_of_range_coefficient () =
  (* every 7-bit coefficient decodes to 127 >= 83 *)
  expect_filter_error "out-of-range coefficient"
    (strict_query_with ~corrupt:(fun share -> Bytes.make (Bytes.length share) '\xFF'))

let test_truncated_share () =
  expect_filter_error "truncated share"
    (strict_query_with ~corrupt:(fun share -> Bytes.sub share 0 (Bytes.length share - 1)))

(* --- numeric blinds through the shared reader --- *)

let test_blind_with_matches_blind () =
  let prg = Secshare_prg.Node_prg.create seed in
  for pre = 0 to 199 do
    check Alcotest.int
      (Printf.sprintf "pre %d" pre)
      (Secshare_core.Numeric.blind ~seed ~pre)
      (Secshare_core.Numeric.blind_with prg ~pre)
  done

let () =
  Alcotest.run "client"
    [
      ("equality", [ QCheck_alcotest.to_alcotest prop_equality_matches_oracle ]);
      ( "malformed",
        [
          Alcotest.test_case "out-of-range coefficient" `Quick test_out_of_range_coefficient;
          Alcotest.test_case "truncated share" `Quick test_truncated_share;
        ] );
      ("blinds", [ Alcotest.test_case "blind_with = blind" `Quick test_blind_with_matches_blind ]);
    ]
