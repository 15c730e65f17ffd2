module Cyclic = Secshare_poly.Cyclic
module Sax = Secshare_xml.Sax
module Trie = Secshare_trie.Trie
module Tokenize = Secshare_trie.Tokenize

type error = Unmapped_name of string | Xml_error of string

exception Encode_error of error

let error_to_string = function
  | Unmapped_name name -> Printf.sprintf "no map entry for tag name %S" name
  | Xml_error msg -> "XML error: " ^ msg

type stats = {
  nodes : int;
  elements : int;
  trie_nodes : int;
  numeric_nodes : int;
  max_depth : int;
  duration_seconds : float;
}

type frame = {
  name : string;
  value : int;  (** map(name) *)
  pre : int;
  parent : int;
  synthetic : bool;  (** a trie character/marker node, not a real tag *)
  mutable product : Cyclic.t;  (** prod f(child) over closed children *)
  mutable has_children : bool;
  mutable real_children : bool;  (** has a real element child (trie nodes don't count) *)
  mutable text : string list;  (** direct text chunks, reversed *)
}

type encoder = {
  ring : Secshare_poly.Ring.t;
  mapping : Mapping.t;
  seed : Secshare_prg.Seed.t;
  prg : Secshare_prg.Node_prg.t;  (** the seed, expanded once *)
  scratch : int array;
      (** [ring.n] coefficients: a node's client share, then its server
          share *)
  table : Secshare_store.Node_table.t;
  trie : Secshare_trie.Expand.mode option;
  numbers : Secshare_store.Node_table.t option;
      (** numeric share column sink; enables aggregatable flagging *)
  agg_scale : int;
  tag_counts : (string, int * int) Hashtbl.t;
      (** real tag -> (occurrences, numeric leaf occurrences) *)
  mutable stack : frame list;
  mutable pre_counter : int;
  mutable post_counter : int;
  mutable elements : int;
  mutable trie_nodes : int;
  mutable numeric_nodes : int;
  mutable max_depth : int;
  started_at : float;
  mutable finished : bool;
}

let create ring ~mapping ~seed ~table ?trie ?numbers
    ?(agg_scale = Numeric.default_scale) () =
  if agg_scale < 0 || agg_scale > Mapping.max_agg_scale then
    invalid_arg
      (Printf.sprintf "Encode.create: scale %d outside [0, %d]" agg_scale
         Mapping.max_agg_scale);
  {
    ring;
    mapping;
    seed;
    prg = Secshare_prg.Node_prg.create seed;
    scratch = Array.make ring.Secshare_poly.Ring.n 0;
    table;
    trie;
    numbers;
    agg_scale;
    tag_counts = Hashtbl.create 97;
    stack = [];
    pre_counter = 0;
    post_counter = 0;
    elements = 0;
    trie_nodes = 0;
    numeric_nodes = 0;
    max_depth = 0;
    started_at = Unix.gettimeofday ();
    finished = false;
  }

let map_value t name =
  match Mapping.value t.mapping name with
  | Some v -> v
  | None -> raise (Encode_error (Unmapped_name name))

let open_element ?(synthetic = false) t name =
  let value = map_value t name in
  let parent = match t.stack with [] -> 0 | frame :: _ -> frame.pre in
  t.pre_counter <- t.pre_counter + 1;
  let frame =
    {
      name;
      value;
      pre = t.pre_counter;
      parent;
      synthetic;
      product = Cyclic.one t.ring;
      has_children = false;
      real_children = false;
      text = [];
    }
  in
  t.stack <- frame :: t.stack;
  t.max_depth <- max t.max_depth (List.length t.stack)

(* Numeric capture at close: a real element with no real element
   children whose concatenated direct text parses as a decimal gets a
   row in the numeric column, additively blinded so the server's cell
   is a uniform field element.  Every parsing leaf is stored; whether
   a tag is *flagged* aggregatable is decided at [finish], when we
   know the tag was numeric at every occurrence. *)
let capture_numeric t frame ~post =
  match t.numbers with
  | None -> ()
  | Some numbers ->
      if frame.synthetic then ()
      else begin
        (* every non-synthetic occurrence counts: an element with real
           element children is a non-numeric occurrence and must
           disqualify its tag at [finish] *)
        let numeric =
          if frame.real_children then false
          else
            let text = String.concat "" (List.rev frame.text) in
            match Numeric.parse_decimal ~scale:t.agg_scale text with
            | None -> false
            | Some v ->
                let share =
                  Numeric.sub (Numeric.normalize v)
                    (Numeric.blind ~seed:t.seed ~pre:frame.pre)
                in
                Secshare_store.Node_table.insert numbers
                  {
                    Secshare_store.Page.pre = frame.pre;
                    post;
                    parent = frame.parent;
                    share = Numeric.to_bytes share;
                  };
                t.numeric_nodes <- t.numeric_nodes + 1;
                true
        in
        let occ, num =
          Option.value (Hashtbl.find_opt t.tag_counts frame.name) ~default:(0, 0)
        in
        Hashtbl.replace t.tag_counts frame.name
          (occ + 1, if numeric then num + 1 else num)
      end

let close_element t =
  match t.stack with
  | [] -> raise (Encode_error (Xml_error "unbalanced end element"))
  | frame :: rest ->
      t.stack <- rest;
      t.post_counter <- t.post_counter + 1;
      (* A leaf is (x - v); an inner node multiplies the accumulated
         child product by its own linear factor. *)
      let own =
        if frame.has_children then Cyclic.mul_linear t.ring ~root:frame.value frame.product
        else Cyclic.linear t.ring ~root:frame.value
      in
      (* server share = own - client share ([Share.server_share]),
         computed in place over the regenerated client coefficients *)
      let q = t.ring.Secshare_poly.Ring.order in
      Secshare_prg.Node_prg.fill t.prg ~pre:frame.pre ~q t.scratch;
      let coeffs = Cyclic.view own in
      Array.iteri
        (fun i client -> t.scratch.(i) <- t.ring.Secshare_poly.Ring.sub coeffs.(i) client)
        t.scratch;
      let row =
        {
          Secshare_store.Page.pre = frame.pre;
          post = t.post_counter;
          parent = frame.parent;
          share = Secshare_poly.Codec.pack ~q t.scratch;
        }
      in
      Secshare_store.Node_table.insert t.table row;
      capture_numeric t frame ~post:t.post_counter;
      (match rest with
      | [] -> ()
      | parent_frame :: _ ->
          parent_frame.product <-
            (if parent_frame.has_children then Cyclic.mul t.ring parent_frame.product own
             else own);
          parent_frame.has_children <- true;
          if not frame.synthetic then parent_frame.real_children <- true)

(* Trie expansion: text becomes synthetic single-character elements
   encoded exactly like real tags. *)
let emit_synthetic_open t name =
  open_element ~synthetic:true t name;
  t.trie_nodes <- t.trie_nodes + 1

let rec emit_trie_forest t trie =
  Trie.fold_edges trie ~init:() ~f:(fun () c child ->
      emit_synthetic_open t (String.make 1 c);
      emit_trie_forest t child;
      if Trie.mem child "" then begin
        emit_synthetic_open t Tokenize.end_marker;
        close_element t
      end;
      close_element t)

let emit_word_chain t word =
  String.iter (fun c -> emit_synthetic_open t (String.make 1 c)) word;
  emit_synthetic_open t Tokenize.end_marker;
  close_element t;
  String.iter (fun _ -> close_element t) word

let handle_text t s =
  match t.trie with
  | None -> ()
  | Some mode -> (
      if t.stack = [] then ()
      else
        match Tokenize.words s with
        | [] -> ()
        | words -> (
            match mode with
            | Secshare_trie.Expand.Compressed -> emit_trie_forest t (Trie.of_words words)
            | Secshare_trie.Expand.Uncompressed -> List.iter (emit_word_chain t) words))

let feed t event =
  if t.finished then raise (Encode_error (Xml_error "encoder already finished"));
  match event with
  | Sax.Start_element (name, _attrs) ->
      open_element t name;
      t.elements <- t.elements + 1
  | Sax.End_element _ -> close_element t
  | Sax.Text s ->
      (* accumulate direct text on the enclosing real element before
         trie expansion consumes it (synthetic frames never hold text:
         expansion opens and closes them within [handle_text]) *)
      (match t.stack with
      | frame :: _ when not frame.synthetic -> frame.text <- s :: frame.text
      | _ -> ());
      handle_text t s
  | Sax.Comment _ | Sax.Pi _ -> ()

let finish t =
  if t.stack <> [] then raise (Encode_error (Xml_error "document has unclosed elements"));
  t.finished <- true;
  (* Strict flagging: a tag is aggregatable only when every one of its
     occurrences was a numeric leaf, so an aggregate's matched set can
     never miss a numeric row.  Re-derived from scratch each encode. *)
  if t.numbers <> None then begin
    Mapping.clear_aggregatable t.mapping;
    Hashtbl.iter
      (fun name (occ, num) ->
        if occ > 0 && occ = num then
          Mapping.set_aggregatable t.mapping name ~scale:t.agg_scale)
      t.tag_counts
  end;
  {
    nodes = t.pre_counter;
    elements = t.elements;
    trie_nodes = t.trie_nodes;
    numeric_nodes = t.numeric_nodes;
    max_depth = t.max_depth;
    duration_seconds = Unix.gettimeofday () -. t.started_at;
  }

let encode_input ring ~mapping ~seed ~table ?trie ?numbers ?agg_scale input =
  let encoder = create ring ~mapping ~seed ~table ?trie ?numbers ?agg_scale () in
  match
    Sax.iter input ~f:(feed encoder);
    finish encoder
  with
  | stats -> Ok stats
  | exception Encode_error e -> Error e
  | exception Sax.Parse_error (pos, msg) ->
      Error (Xml_error (Printf.sprintf "line %d, column %d: %s" pos.Sax.line pos.Sax.col msg))

let encode_string ring ~mapping ~seed ~table ?trie ?numbers ?agg_scale s =
  encode_input ring ~mapping ~seed ~table ?trie ?numbers ?agg_scale
    (Sax.input_of_string s)

let encode_channel ring ~mapping ~seed ~table ?trie ?numbers ?agg_scale ic =
  encode_input ring ~mapping ~seed ~table ?trie ?numbers ?agg_scale
    (Sax.input_of_channel ic)

let encode_tree ring ~mapping ~seed ~table ?trie ?numbers ?agg_scale tree =
  let encoder = create ring ~mapping ~seed ~table ?trie ?numbers ?agg_scale () in
  match
    List.iter (feed encoder) (Secshare_xml.Tree.to_events tree);
    finish encoder
  with
  | stats -> Ok stats
  | exception Encode_error e -> Error e
