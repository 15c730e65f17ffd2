module Splitmix = Secshare_prg.Splitmix64
module Xoshiro = Secshare_prg.Xoshiro
module Chacha = Secshare_prg.Chacha20
module Seed = Secshare_prg.Seed
module Node_prg = Secshare_prg.Node_prg

let check = Alcotest.check
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let hex_of_bytes b =
  String.concat ""
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

(* --- ChaCha20 (RFC 8439) --- *)

let rfc_key =
  let b = Bytes.create 32 in
  for i = 0 to 31 do
    Bytes.set_uint8 b i i
  done;
  b

let rfc_nonce =
  let b = Bytes.make 12 '\000' in
  Bytes.set_uint8 b 3 0x09;
  Bytes.set_uint8 b 7 0x4a;
  b

let test_chacha_rfc_block () =
  (* RFC 8439 §2.3.2: serialised block for counter = 1 *)
  let expected =
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
     d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
  in
  let block = Chacha.block ~key:rfc_key ~counter:1 ~nonce:rfc_nonce in
  check Alcotest.string "rfc block" expected (hex_of_bytes block)

let test_chacha_keystream_consistency () =
  (* keystream across block boundaries equals concatenated blocks *)
  let ks = Chacha.keystream ~key:rfc_key ~nonce:rfc_nonce ~counter:1 100 in
  let b1 = Chacha.block ~key:rfc_key ~counter:1 ~nonce:rfc_nonce in
  let b2 = Chacha.block ~key:rfc_key ~counter:2 ~nonce:rfc_nonce in
  check Alcotest.string "first 64" (hex_of_bytes b1) (hex_of_bytes (Bytes.sub ks 0 64));
  check Alcotest.string "tail 36"
    (hex_of_bytes (Bytes.sub b2 0 36))
    (hex_of_bytes (Bytes.sub ks 64 36))

let test_chacha_xor_involution () =
  let data = Bytes.of_string "attack at dawn; bring the polynomial shares" in
  let enc = Chacha.xor_with ~key:rfc_key ~nonce:rfc_nonce ~counter:7 data in
  check Alcotest.bool "ciphertext differs" false (Bytes.equal data enc);
  let dec = Chacha.xor_with ~key:rfc_key ~nonce:rfc_nonce ~counter:7 enc in
  check Alcotest.bool "roundtrip" true (Bytes.equal data dec)

let test_chacha_rejects () =
  Alcotest.check_raises "short key" (Invalid_argument "Chacha20.block: key must be 32 bytes")
    (fun () -> ignore (Chacha.block ~key:(Bytes.create 16) ~counter:0 ~nonce:rfc_nonce));
  Alcotest.check_raises "short nonce"
    (Invalid_argument "Chacha20.block: nonce must be 12 bytes") (fun () ->
      ignore (Chacha.block ~key:rfc_key ~counter:0 ~nonce:(Bytes.create 8)));
  Alcotest.check_raises "negative counter"
    (Invalid_argument "Chacha20.block: negative counter") (fun () ->
      ignore (Chacha.block ~key:rfc_key ~counter:(-1) ~nonce:rfc_nonce))

(* --- SplitMix64 / xoshiro --- *)

let test_splitmix_reference () =
  (* Reference outputs for seed 1234567 (from the public-domain C
     implementation by Vigna). *)
  let g = Splitmix.create 1234567L in
  let got = List.init 3 (fun _ -> Splitmix.next g) in
  let expected = [ 6457827717110365317L; 3203168211198807973L; -8629252141511181193L ] in
  List.iter2 (fun e g -> check Alcotest.int64 "splitmix ref" e g) expected got

let test_xoshiro_regression () =
  (* pinned stream for seed 42 (guards refactors) *)
  let g = Xoshiro.create 42L in
  let got = List.init 3 (fun _ -> Xoshiro.next g) in
  let expected = [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L ] in
  List.iter2 (fun e v -> check Alcotest.int64 "xoshiro regression" e v) expected got

let test_splitmix_determinism () =
  let a = Splitmix.create 42L and b = Splitmix.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Splitmix.next a) (Splitmix.next b)
  done

let test_prng_bounds () =
  let g = Xoshiro.create 7L in
  for _ = 1 to 1000 do
    let v = Xoshiro.next_int g ~bound:17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done;
  let s = Splitmix.create 7L in
  for _ = 1 to 1000 do
    let v = Splitmix.next_int s ~bound:3 in
    if v < 0 || v >= 3 then Alcotest.failf "out of bounds: %d" v
  done

let test_prng_bound_errors () =
  let g = Xoshiro.create 7L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Xoshiro.next_int: bound must be positive")
    (fun () -> ignore (Xoshiro.next_int g ~bound:0))

let test_xoshiro_copy_independent () =
  let a = Xoshiro.create 99L in
  ignore (Xoshiro.next a);
  let b = Xoshiro.copy a in
  let va = Xoshiro.next a in
  let vb = Xoshiro.next b in
  check Alcotest.int64 "copy continues identically" va vb;
  (* advancing [a] must not advance [b]: skip one output on [a] and the
     streams line up shifted by one *)
  ignore (Xoshiro.next a);
  let va2 = Xoshiro.next a in
  ignore (Xoshiro.next b);
  let vb2 = Xoshiro.next b in
  check Alcotest.int64 "copies stay in lockstep" va2 vb2

let test_xoshiro_all_zero_rejected () =
  Alcotest.check_raises "zero state" (Invalid_argument "Xoshiro.of_state: all-zero state is invalid")
    (fun () -> ignore (Xoshiro.of_state [| 0L; 0L; 0L; 0L |]))

let test_float_range () =
  let g = Xoshiro.create 3L in
  for _ = 1 to 1000 do
    let f = Xoshiro.next_float g in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

(* --- seeds --- *)

let test_seed_hex_roundtrip () =
  let seed = Seed.of_passphrase "hello" in
  match Seed.of_hex (Seed.to_hex seed) with
  | Ok seed' -> check Alcotest.bool "roundtrip" true (Seed.equal seed seed')
  | Error e -> Alcotest.fail e

let test_seed_hex_errors () =
  (match Seed.of_hex "abcd" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short hex accepted");
  match Seed.of_hex (String.make 64 'g') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-hex accepted"

let test_seed_passphrase_deterministic () =
  check Alcotest.bool "same phrase same seed" true
    (Seed.equal (Seed.of_passphrase "p1") (Seed.of_passphrase "p1"));
  check Alcotest.bool "different phrase different seed" false
    (Seed.equal (Seed.of_passphrase "p1") (Seed.of_passphrase "p2"))

let test_seed_file_roundtrip () =
  let path = Filename.temp_file "seed" ".hex" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let seed = Seed.generate () in
      Seed.save path seed;
      match Seed.load path with
      | Ok seed' -> check Alcotest.bool "roundtrip" true (Seed.equal seed seed')
      | Error e -> Alcotest.fail e)

let test_seed_generate_distinct () =
  check Alcotest.bool "two fresh seeds differ" false
    (Seed.equal (Seed.generate ()) (Seed.generate ()))

(* --- node PRG --- *)

let seed_a = Seed.of_passphrase "node-prg-a"
let seed_b = Seed.of_passphrase "node-prg-b"

let test_node_prg_deterministic () =
  let c1 = Node_prg.coefficients ~seed:seed_a ~pre:17 ~q:83 ~count:82 in
  let c2 = Node_prg.coefficients ~seed:seed_a ~pre:17 ~q:83 ~count:82 in
  check Alcotest.(array int) "deterministic" c1 c2

let test_node_prg_domain_separation () =
  let c1 = Node_prg.coefficients ~seed:seed_a ~pre:17 ~q:83 ~count:82 in
  let c2 = Node_prg.coefficients ~seed:seed_a ~pre:18 ~q:83 ~count:82 in
  let c3 = Node_prg.coefficients ~seed:seed_b ~pre:17 ~q:83 ~count:82 in
  check Alcotest.bool "different pre differs" false (c1 = c2);
  check Alcotest.bool "different seed differs" false (c1 = c3)

let test_node_prg_range () =
  List.iter
    (fun q ->
      let coeffs = Node_prg.coefficients ~seed:seed_a ~pre:3 ~q ~count:500 in
      Array.iter
        (fun c -> if c < 0 || c >= q then Alcotest.failf "q=%d: %d out of range" q c)
        coeffs)
    [ 2; 5; 29; 83; 257; 1021 ]

let test_node_prg_uniformity () =
  (* crude chi-square-ish check: each residue of F_5 should get roughly
     1/5 of 10_000 draws (within 20%) *)
  let q = 5 and count = 10_000 in
  let coeffs = Node_prg.coefficients ~seed:seed_a ~pre:0 ~q ~count in
  let buckets = Array.make q 0 in
  Array.iter (fun c -> buckets.(c) <- buckets.(c) + 1) coeffs;
  Array.iteri
    (fun v n ->
      let expected = count / q in
      if abs (n - expected) > expected / 5 then
        Alcotest.failf "value %d drawn %d times (expected ~%d)" v n expected)
    buckets

let test_node_prg_rejects () =
  Alcotest.check_raises "negative pre" (Invalid_argument "Node_prg: negative pre")
    (fun () -> ignore (Node_prg.coefficients ~seed:seed_a ~pre:(-1) ~q:5 ~count:1))

let test_client_poly_matches_coefficients () =
  let ring = Secshare_poly.Ring.of_prime ~p:83 in
  let poly = Node_prg.client_poly ~ring ~seed:seed_a ~pre:9 in
  let raw = Node_prg.coefficients ~seed:seed_a ~pre:9 ~q:83 ~count:82 in
  check Alcotest.(array int) "same coefficients" raw (Secshare_poly.Cyclic.to_int_array poly)

(* --- the block-order generator against its oracle --- *)

(* The plain definition of a node's draws: the continuous ChaCha20
   keystream of the (pre, "poly") nonce from counter 0, cut into
   big-endian draws of the fewest bytes covering q and rejection-
   sampled.  Regenerated twice as long whenever it runs dry. *)
let reference_coefficients ~seed ~pre ~q ~count =
  let nonce = Bytes.make Chacha.nonce_length '\000' in
  Bytes.set_int64_le nonce 0 (Int64.of_int pre);
  Bytes.blit_string "poly" 0 nonce 8 4;
  let k = if q <= 256 then 1 else if q <= 65536 then 2 else 3 in
  let cap = 1 lsl (8 * k) in
  let accept_below = cap - (cap mod q) in
  let rec attempt len =
    let ks = Chacha.keystream ~key:(Seed.to_bytes seed) ~nonce ~counter:0 len in
    let out = Array.make count 0 in
    let rec go i pos =
      if i = count then Some out
      else if pos + k > len then None
      else begin
        let v = ref 0 in
        for j = 0 to k - 1 do
          v := (!v lsl 8) lor Bytes.get_uint8 ks (pos + j)
        done;
        if !v < accept_below then begin
          out.(i) <- !v mod q;
          go (i + 1) (pos + k)
        end
        else go i (pos + k)
      end
    in
    match go 0 0 with Some out -> out | None -> attempt (2 * len)
  in
  attempt (max 64 (count * k))

let gen_seed =
  QCheck2.Gen.(map (fun s -> Seed.of_bytes (Bytes.of_string s)) (string_size (return 32)))

let prop_fill_matches_reference =
  QCheck2.Test.make ~count:300 ~name:"fill = continuous keystream"
    QCheck2.Gen.(
      quad gen_seed (int_range 0 (1 lsl 40))
        (oneofl [ 2; 4; 5; 16; 29; 81; 83; 89; 131; 251; 257; 1021 ])
        (int_range 0 300))
    (fun (seed, pre, q, count) ->
      let out = Array.make count (-1) in
      Node_prg.fill (Node_prg.create seed) ~pre ~q out;
      out = reference_coefficients ~seed ~pre ~q ~count)

(* Before block-order reading, a draw that ran past its first buffer
   (2 bytes per coefficient) re-read keystream it had already used:
   at q = 131 about one node in three, e.g. pre 3 under "x", whose
   coefficients 124-127 came out [83; 45; 83; 45]. *)
let test_no_keystream_reuse_q131 () =
  let seed = Seed.of_passphrase "x" in
  for pre = 0 to 99 do
    check
      Alcotest.(array int)
      (Printf.sprintf "pre %d" pre)
      (reference_coefficients ~seed ~pre ~q:131 ~count:130)
      (Node_prg.coefficients ~seed ~pre ~q:131 ~count:130)
  done

(* Default-field shares must not move: the digest of every client
   coefficient of pres 0-999 at q = 83, pinned before the generator
   was rewritten. *)
let test_client_poly_golden () =
  let ring = Secshare_poly.Ring.of_prime ~p:83 in
  let buf = Buffer.create 82_000 in
  for pre = 0 to 999 do
    Array.iter
      (fun c -> Buffer.add_char buf (Char.chr c))
      (Secshare_poly.Cyclic.to_int_array
         (Node_prg.client_poly ~ring ~seed:Test_support.test_seed ~pre))
  done;
  check Alcotest.string "digest" "e4abdb705f949fcba51ed0df916ca15e"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_fill_allocates_nothing () =
  let prg = Node_prg.create seed_a in
  let out = Array.make 82 0 in
  Node_prg.fill prg ~pre:0 ~q:83 out;
  let before = Gc.minor_words () in
  for pre = 1 to 1000 do
    Node_prg.fill prg ~pre ~q:83 out
  done;
  let after = Gc.minor_words () in
  check (Alcotest.float 0.) "minor words over 1000 fills" 0. (after -. before)

let () =
  Alcotest.run "prg"
    [
      ( "chacha20",
        [
          Alcotest.test_case "RFC 8439 block vector" `Quick test_chacha_rfc_block;
          Alcotest.test_case "keystream consistency" `Quick test_chacha_keystream_consistency;
          Alcotest.test_case "xor involution" `Quick test_chacha_xor_involution;
          Alcotest.test_case "input validation" `Quick test_chacha_rejects;
        ] );
      ( "generators",
        [
          Alcotest.test_case "splitmix reference outputs" `Quick test_splitmix_reference;
          Alcotest.test_case "xoshiro pinned stream" `Quick test_xoshiro_regression;
          Alcotest.test_case "splitmix determinism" `Quick test_splitmix_determinism;
          Alcotest.test_case "bounded draws in range" `Quick test_prng_bounds;
          Alcotest.test_case "bound validation" `Quick test_prng_bound_errors;
          Alcotest.test_case "copy independence" `Quick test_xoshiro_copy_independent;
          Alcotest.test_case "all-zero state rejected" `Quick test_xoshiro_all_zero_rejected;
          Alcotest.test_case "float range" `Quick test_float_range;
          qtest "pick stays in array"
            QCheck2.Gen.(pair (int_range 1 20) (int_range 0 1000))
            (fun (len, seed) ->
              let arr = Array.init len Fun.id in
              let g = Xoshiro.create (Int64.of_int seed) in
              let v = Xoshiro.pick g arr in
              v >= 0 && v < len);
        ] );
      ( "seed",
        [
          Alcotest.test_case "hex roundtrip" `Quick test_seed_hex_roundtrip;
          Alcotest.test_case "hex errors" `Quick test_seed_hex_errors;
          Alcotest.test_case "passphrase determinism" `Quick test_seed_passphrase_deterministic;
          Alcotest.test_case "file roundtrip" `Quick test_seed_file_roundtrip;
          Alcotest.test_case "fresh seeds distinct" `Quick test_seed_generate_distinct;
        ] );
      ( "node prg",
        [
          Alcotest.test_case "deterministic" `Quick test_node_prg_deterministic;
          Alcotest.test_case "domain separation" `Quick test_node_prg_domain_separation;
          Alcotest.test_case "range" `Quick test_node_prg_range;
          Alcotest.test_case "rough uniformity" `Quick test_node_prg_uniformity;
          Alcotest.test_case "input validation" `Quick test_node_prg_rejects;
          Alcotest.test_case "client_poly consistency" `Quick test_client_poly_matches_coefficients;
          QCheck_alcotest.to_alcotest prop_fill_matches_reference;
          Alcotest.test_case "no keystream reuse at q=131" `Quick test_no_keystream_reuse_q131;
          Alcotest.test_case "client_poly golden digest" `Quick test_client_poly_golden;
          Alcotest.test_case "fill allocates nothing" `Quick test_fill_allocates_nothing;
        ] );
    ]
