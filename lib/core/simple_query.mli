(** The [SimpleQuery] engine (paper §5.3).

    "The most simple search strategy parses the XPath query into steps
    where each step consists of a direction (child or descendant) and
    a tag name" — the query is consumed left to right, each step
    expanding the current result set along its axis and filtering the
    candidates with a *single* test at the step's own tag name.  No
    look-ahead: dead branches are only discovered when a later step
    fails, which makes [//] steps expensive ("this step even increases
    the number of possible nodes that have to be checked").

    With [Non_strict] filtering the result contains every candidate
    whose *subtree* contains the step name (the containment test);
    with [Strict] every candidate whose own tag *is* the step name
    (the equality test). *)

val lower :
  ?agg:Secshare_xpath.Ast.agg_func ->
  mapping:Mapping.t ->
  strictness:Query_common.strictness ->
  Secshare_xpath.Ast.t ->
  Plan.t
(** Lower a query to the streaming plan this engine executes: each
    non-strict name test rides inside its axis scan ([Scan_eval]),
    each strict one is an equality filter after the step's dedup.
    With [agg] the plan ends in the terminal [Aggregate] sink.
    @raise Query_common.Query_error on an empty query, a name with
    no map entry, or a [sum]/[avg] over a non-aggregatable tag. *)
