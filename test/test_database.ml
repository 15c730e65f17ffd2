(* The Database facade: bundles, pattern queries, field admission,
   error surfaces. *)

module DB = Secshare_core.Database
module QC = Secshare_core.Query_common
module Tree = Secshare_xml.Tree

let check = Alcotest.check
let pres = Test_support.pres_of_metas

let with_temp_dir f =
  let dir = Filename.temp_file "ssdb-bundle" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun entry -> rm (Filename.concat path entry)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let sample_db () =
  let doc = Secshare_xmark.Generate.generate ~factor:0.4 () in
  Test_support.db_of_tree doc

let queries = [ "/site"; "/site/regions/europe/item"; "//bidder/date" ]

let test_bundle_roundtrip () =
  with_temp_dir (fun dir ->
      let db = sample_db () in
      (match DB.save_bundle db ~dir with Ok () -> () | Error e -> Alcotest.fail e);
      check Alcotest.bool "shares.db exists" true
        (Sys.file_exists (Filename.concat dir "shares.db"));
      check Alcotest.bool "map exists" true
        (Sys.file_exists (Filename.concat dir "client.map"));
      match DB.open_bundle ~dir () with
      | Error e -> Alcotest.fail e
      | Ok reopened ->
          List.iter
            (fun q ->
              let original = Test_support.must_query ~strictness:QC.Strict db q in
              let roundtrip =
                match DB.query ~strictness:QC.Strict reopened q with
                | Ok r -> r
                | Error e -> Alcotest.failf "%s: %s" q e
              in
              check Alcotest.(list int) q (pres (DB.result_nodes original)) (pres (DB.result_nodes roundtrip)))
            queries;
          DB.close reopened)

let test_bundle_missing_dir () =
  match DB.open_bundle ~dir:"/nonexistent/bundle/here" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "opened a missing bundle"

let test_bundle_corrupt_config () =
  with_temp_dir (fun dir ->
      let db = sample_db () in
      (match DB.save_bundle db ~dir with Ok () -> () | Error e -> Alcotest.fail e);
      Out_channel.with_open_text (Filename.concat dir "config") (fun oc ->
          output_string oc "p = not_a_number\ne = 1\n");
      match DB.open_bundle ~dir () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "opened a bundle with a corrupt config")

let test_bundle_shares_public () =
  (* re-opening the shares with a *different* seed must yield garbage:
     the published half alone is useless *)
  with_temp_dir (fun dir ->
      let db = sample_db () in
      (match DB.save_bundle db ~dir with Ok () -> () | Error e -> Alcotest.fail e);
      Secshare_prg.Seed.save (Filename.concat dir "client.seed")
        (Secshare_prg.Seed.of_passphrase "attacker guess");
      match DB.open_bundle ~dir () with
      | Error e -> Alcotest.fail e
      | Ok hijacked ->
          let r =
            Result.get_ok (DB.query ~strictness:QC.Non_strict hijacked "/site")
          in
          check Alcotest.(list int) "no matches without the real seed" []
            (pres (DB.result_nodes r));
          DB.close hijacked)

(* --- §4 regular expressions in contains() --- *)

let regex_db () =
  let doc =
    Result.get_ok
      (Tree.of_string
         "<people><name>joan</name><name>jean</name><name>jon</name><name>johnson</name></people>")
  in
  Test_support.db_of_tree ~trie:Secshare_trie.Expand.Compressed doc

let count_matches db q =
  List.length (DB.result_nodes (Test_support.must_query ~strictness:QC.Strict db q))

let test_contains_dot () =
  let db = regex_db () in
  (* j.an: joan and jean, not jon/johnson *)
  check Alcotest.int "j.an" 2 (count_matches db "//name[contains(text(), \"j.an\")]");
  (* j.n: jon and jean?  j-?-n: jon has j,o,n; jean j,e,a... no.  jon only *)
  check Alcotest.int "j.n" 1 (count_matches db "//name[contains(text(), \"j.n\")]")

let test_contains_dot_star () =
  let db = regex_db () in
  (* j.*n: result nodes are the final n character nodes — one per name,
     except johnson whose chain has two n's below the j *)
  check Alcotest.int "j.*n" 5 (count_matches db "//name[contains(text(), \"j.*n\")]");
  (* j.*h: only johnson *)
  check Alcotest.int "j.*h" 1 (count_matches db "//name[contains(text(), \"j.*h\")]")

let test_contains_bad_pattern () =
  let db = regex_db () in
  match DB.query db "//name[contains(text(), \"j%n\")]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an invalid pattern"

let test_storage_stats_consistency () =
  let db = sample_db () in
  let stats = DB.storage_stats db in
  check Alcotest.bool "rows positive" true (stats.DB.rows > 0);
  check Alcotest.int "encode stats agree" stats.DB.rows
    stats.DB.encode_stats.Secshare_core.Encode.nodes;
  check Alcotest.bool "data covers the shares" true
    (stats.DB.data_bytes >= stats.DB.rows * 72)

let test_field_order_overflow_rejected () =
  (* 83^20 wraps the native int: the configuration must be rejected
     with a clear error, not produce a bogus field size *)
  let tree = Tree.element "a" [ Tree.element "b" [] ] in
  List.iter
    (fun e ->
      let config = { DB.default_config with e; seed = Some Test_support.test_seed } in
      let contains_bound msg =
        let needle = "bound" in
        let n = String.length needle and len = String.length msg in
        let rec scan i = i + n <= len && (String.sub msg i n = needle || scan (i + 1)) in
        scan 0
      in
      match DB.create_tree ~config tree with
      | Error msg ->
          check Alcotest.bool
            (Printf.sprintf "e = %d names the bound: %s" e msg)
            true (contains_bound msg)
      | Ok _ -> Alcotest.failf "e = %d accepted despite overflow" e)
    [ 4; 20; 40 ];
  (* a sane extension degree still works *)
  match DB.create_tree ~config:{ DB.default_config with e = 2; p = 5 } tree with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "p=5 e=2 should be fine: %s" msg

(* q = 257 is prime but past the byte-table bound: every entry point
   must refuse it with a typed error before it touches a file or a
   socket. *)
let mentions_bound msg =
  let needle = "bound" in
  let n = String.length needle and len = String.length msg in
  let rec scan i = i + n <= len && (String.sub msg i n = needle || scan (i + 1)) in
  scan 0

let expect_field_error what = function
  | Error msg ->
      check Alcotest.bool (Printf.sprintf "%s names the bound: %s" what msg) true
        (mentions_bound msg)
  | Ok db ->
      DB.close db;
      Alcotest.failf "%s accepted q = 257" what

let test_q257_create_tree () =
  let tree = Tree.element "a" [ Tree.element "b" [] ] in
  expect_field_error "create_tree"
    (DB.create_tree
       ~config:{ DB.default_config with p = 257; seed = Some Test_support.test_seed }
       tree)

let test_q257_of_transport () =
  let mapping = Result.get_ok (Secshare_core.Mapping.of_names ~q:257 [ "a"; "b" ]) in
  let transport =
    Secshare_rpc.Transport.local ~handler:(fun _ ->
        Alcotest.fail "the transport was used before the field was admitted")
  in
  expect_field_error "of_transport"
    (DB.of_transport ~p:257 ~e:1 ~mapping ~seed:Test_support.test_seed transport);
  expect_field_error "connect"
    (DB.connect ~p:257 ~e:1 ~mapping ~seed:Test_support.test_seed
       ~path:"/nonexistent/never/here.sock" ())

let test_q257_open_bundle () =
  with_temp_dir (fun dir ->
      let db = Test_support.db_of_tree (Tree.element "a" [ Tree.element "b" [] ]) in
      (match DB.save_bundle db ~dir with Ok () -> () | Error e -> Alcotest.fail e);
      DB.close db;
      (* without the page file, any attempt to open it would fail with
         a different error than the admission rule's *)
      Sys.remove (Filename.concat dir "shares.db");
      let map_path = Filename.concat dir "client.map" in
      Out_channel.with_open_text map_path (fun oc ->
          output_string oc "q = 257\na = 256\nb = 255\n");
      (match DB.open_bundle ~dir () with
      | Error msg ->
          check Alcotest.bool ("map q = 257 refused: " ^ msg) true
            (String.length msg >= 4 && String.sub msg 0 4 = "map:")
      | Ok db ->
          DB.close db;
          Alcotest.fail "opened a bundle whose map declares q = 257");
      Out_channel.with_open_text (Filename.concat dir "config") (fun oc ->
          output_string oc "p = 257\ne = 1\n");
      expect_field_error "open_bundle" (DB.open_bundle ~dir ()))

let test_accuracy_empty_result () =
  let db = Test_support.db_of_tree (Tree.element "a" [ Tree.element "b" [] ]) in
  (* both result sets empty -> accuracy defined as 1.0 *)
  match DB.accuracy db "//zzz" with
  | Ok a -> check (Alcotest.float 0.0001) "empty/empty" 1.0 a
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "database"
    [
      ( "bundles",
        [
          Alcotest.test_case "save/open roundtrip" `Quick test_bundle_roundtrip;
          Alcotest.test_case "missing directory" `Quick test_bundle_missing_dir;
          Alcotest.test_case "corrupt config" `Quick test_bundle_corrupt_config;
          Alcotest.test_case "shares alone are useless" `Quick test_bundle_shares_public;
        ] );
      ( "contains patterns",
        [
          Alcotest.test_case "dot" `Quick test_contains_dot;
          Alcotest.test_case "dot-star" `Quick test_contains_dot_star;
          Alcotest.test_case "invalid pattern" `Quick test_contains_bad_pattern;
        ] );
      ( "facade",
        [
          Alcotest.test_case "storage stats" `Quick test_storage_stats_consistency;
          Alcotest.test_case "field-order overflow rejected" `Quick
            test_field_order_overflow_rejected;
          Alcotest.test_case "accuracy of empty results" `Quick test_accuracy_empty_result;
        ] );
      ( "field admission",
        [
          Alcotest.test_case "q = 257 refused by create_tree" `Quick test_q257_create_tree;
          Alcotest.test_case "q = 257 refused by of_transport and connect" `Quick
            test_q257_of_transport;
          Alcotest.test_case "q = 257 refused by open_bundle" `Quick test_q257_open_bundle;
        ] );
    ]
