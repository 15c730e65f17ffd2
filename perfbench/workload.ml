(* The three workloads: their documents, their cells and the oracle
   answers every query is checked against.  README.md gives the reason
   for each choice. *)

module QC = Secshare_core.Query_common
module Reference = Secshare_core.Reference
module Protocol = Secshare_rpc.Protocol
module Tree = Secshare_xml.Tree
module Generate = Secshare_xmark.Generate
module Splitmix64 = Secshare_prg.Splitmix64
module Ast = Secshare_xpath.Ast

type kind = Local | Socket | Sharded

type t = {
  name : string;
  kind : kind;
  factor : float;  (** XMark scale factor; 1.0 is about 100 KB *)
  cells : (string * QC.strictness) list;
  setups : int;  (** set-ups per run; [setup_s] is their median *)
  rounds : int;  (** timed rounds per run, at least *)
}

(* A timed cell needs this many samples so that ten lie beyond its p90. *)
let p90_rounds = Stats.min_samples ~p:90 ~beyond:10

(* Table 2's five paths and Table 1's nine-step chain. *)
let paths =
  [
    "/site//europe/item";
    "/site//europe//item";
    "/site/*/person//city";
    "/*/*/open_auction/bidder/date";
    "//bidder/date";
    "/site/regions/europe/item/description/parlist/listitem/text/keyword";
  ]

let all =
  [
    {
      name = "xmark-local";
      kind = Local;
      factor = 10.0;
      cells = List.concat_map (fun q -> [ (q, QC.Strict); (q, QC.Non_strict) ]) paths;
      setups = 5;
      rounds = p90_rounds;
    };
    {
      name = "bundle-socket";
      kind = Socket;
      factor = 3.0;
      cells = List.map (fun q -> (q, QC.Non_strict)) paths;
      setups = 7;
      rounds = p90_rounds;
    };
    {
      name = "shard-2of3-agg";
      kind = Sharded;
      factor = 3.0;
      cells =
        List.map
          (fun q -> (q, QC.Strict))
          [
            "/site//europe/item";
            "/site/*/person//city";
            "//bidder/date";
            "count(//bidder)";
            "sum(//price)";
            "avg(//current)";
            "avg(//initial)";
          ];
      setups = 7;
      rounds = p90_rounds;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The document a seed gives.  Its shape comes from a fixed generator
   seed; the workload seed redraws every text leaf character by
   character (letters stay letters, digits stay digits, no digit run
   gains a leading zero, lengths are kept).  Queries look only at tags
   and numeric leaves, so every seed asks the same work of the program
   and the spread across seeds measures the machine, not the document.
   The seed still changes the document, the aggregate answers and,
   through the secret seeds the benchmark derives from it, every stored
   share. *)
let document ~factor ~seed =
  let shape =
    Generate.generate_profile ~seed:20050905L (Generate.profile_of_factor factor)
  in
  let rng = Splitmix64.create (Int64.of_int seed) in
  let draw base bound = Char.chr (Char.code base + Splitmix64.next_int rng ~bound) in
  let is_digit c = c >= '0' && c <= '9' in
  let redraw text =
    String.mapi
      (fun i c ->
        match c with
        | '0' .. '9' when i > 0 && is_digit text.[i - 1] -> draw '0' 10
        | '0' .. '9' -> draw '1' 9
        | 'a' .. 'z' -> draw 'a' 26
        | 'A' .. 'Z' -> draw 'A' 26
        | c -> c)
      text
  in
  let rec go = function
    | Tree.Text text -> Tree.Text (redraw text)
    | Tree.Element e -> Tree.Element { e with children = List.map go e.children }
  in
  go shape

(* --- cells and the oracle ------------------------------------------ *)

type expected = Pres of int list | Value of QC.value

type cell = { text : string; strictness : QC.strictness; expected : expected }

let cell doc (text, strictness) =
  match Secshare_xpath.Parser.parse_query text with
  | Error msg -> failwith (text ^ ": " ^ msg)
  | Ok { Ast.func; path } ->
      let semantics =
        match strictness with
        | QC.Strict -> Reference.Exact
        | QC.Non_strict -> Reference.Containment
      in
      let expected =
        match func with
        | None -> Pres (Reference.run ~semantics doc path)
        | Some func -> Value (Reference.run_agg ~semantics ~func doc path)
      in
      { text; strictness; expected }

let label cell =
  Printf.sprintf "%s [%s]" cell.text
    (match cell.strictness with QC.Strict -> "strict" | QC.Non_strict -> "non-strict")

let answer_ok cell (value : QC.value) =
  match (cell.expected, value) with
  | Pres want, QC.Nodes nodes ->
      List.equal Int.equal want
        (List.map (fun (m : Protocol.node_meta) -> m.Protocol.pre) nodes)
  | Value want, got -> got = want
  | Pres _, _ -> false
