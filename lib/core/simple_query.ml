module Ast = Secshare_xpath.Ast
open Query_common

(* SimpleQuery as a plan lowering: each step becomes an axis scan, a
   dedup, and (for a name step) the step's single test.  No look-ahead
   — the lowered plan never inspects later steps.

   The non-strict containment point rides inside the scan
   ([Scan { eval = Some _ }]).  The strict test is a separate
   [Filter_equality]: the engine runs no containment sieve before it,
   and fusing one in would change the cost model. *)
let lower ?agg ~mapping ~strictness query =
  if query = [] then raise (Query_error "empty query");
  let step_ops ~first (step : Ast.step) =
    let name_point =
      match step.Ast.test with
      | Ast.Name name -> Some (map_point mapping name)
      | Ast.Any | Ast.Parent -> None
    in
    let fused_eval, test_ops =
      match (name_point, strictness) with
      | None, _ -> (None, [])
      | Some point, Non_strict -> (Some point, [])
      | Some point, Strict -> (None, [ Plan.Filter_equality { point } ])
    in
    match (step.Ast.test, step.Ast.axis) with
    | Ast.Parent, _ -> [ Plan.Parent_step; Plan.Dedup ]
    | _, Ast.Child ->
        let axis = if first then Plan.Root_scan else Plan.Child_scan in
        (Plan.Scan { axis; eval = fused_eval } :: Plan.Dedup :: test_ops)
    | _, Ast.Descendant ->
        (* a first [//] descends from the virtual document node, so the
           root itself is a candidate: seed the scan with the root and
           include it *)
        let prefix =
          if first then [ Plan.Scan { axis = Plan.Root_scan; eval = None } ] else []
        in
        prefix
        @ (Plan.Scan
             { axis = Plan.Descendant_scan { include_self = first }; eval = fused_eval }
          :: Plan.Dedup :: test_ops)
  in
  let rec go ~first = function
    | [] -> []
    | step :: rest -> step_ops ~first step @ go ~first:false rest
  in
  let path_ops = go ~first:true query in
  match agg with
  | None -> path_ops
  | Some func ->
      path_ops @ [ Plan.Aggregate { func; scale = agg_scale mapping ~func query } ]

let all_names_mapped ~mapping query =
  List.for_all (fun n -> Mapping.value mapping n <> None) (Ast.name_tests query)

let run_explained filter ~mapping ~strictness query =
  if query = [] then raise (Query_error "empty query");
  if not (all_names_mapped ~mapping query) then ([], [])
  else begin
    let plan = lower ~mapping ~strictness query in
    let ops = Operator.build filter plan in
    let metas = Operator.drain ops in
    (sort_dedup metas, Operator.stats_list ops)
  end

let run filter ~mapping ~strictness query =
  fst (run_explained filter ~mapping ~strictness query)

let run_value filter ~mapping ~strictness ~agg query =
  if query = [] then raise (Query_error "empty query");
  if not (all_names_mapped ~mapping query) then (empty_agg_value agg, [])
  else begin
    let plan = lower ~agg ~mapping ~strictness query in
    let ops = Operator.build filter plan in
    ignore (Operator.drain ops : _ list);
    match List.rev ops with
    | sink :: _ -> (
        match Operator.agg_value sink with
        | Some value -> (value, Operator.stats_list ops)
        | None -> raise (Query_error "aggregate sink produced no value"))
    | [] -> raise (Query_error "empty plan")
  end
