(** The [AdvancedQuery] engine (paper §5.3).

    "The AdvancedQuery takes the tree as the starting point and parses
    it from root to leaf nodes.  At each step the whole remaining
    query is taken into account.  We take advantage of the fact that
    nodes have knowledge of all descendants.  This way it is possible
    to identify dead branches early in the search process at the cost
    of more evaluations for each node."

    At every candidate the engine checks — by containment, which is
    the only look-ahead a polynomial offers — that *all* tag names
    still to be matched by the remaining query occur somewhere in the
    candidate's subtree; only then does the walk descend.  The current
    step's own match uses the configured test (containment or
    equality); descendant steps walk the tree downward level by
    level, pruning subtrees whose polynomials rule the remaining
    names out. *)

val lower :
  ?agg:Secshare_xpath.Ast.agg_func ->
  fused:bool ->
  mapping:Mapping.t ->
  strictness:Query_common.strictness ->
  Secshare_xpath.Ast.t ->
  Plan.t
(** Lower a query to the streaming plan this engine executes: every
    step carries the look-ahead points of the remaining query, child
    steps apply them as a containment sieve (first point fused into
    the scan when [fused]), descendant steps become the pruned
    look-ahead walk.  With [agg] the plan ends in the terminal
    [Aggregate] sink.  Queries always lower with [fused:true];
    the unfused plan is still valid (it stays because
    perfbench/perfbench.ml passes [fused]).
    @raise Query_common.Query_error on an empty query, a name with
    no map entry, or a [sum]/[avg] over a non-aggregatable tag. *)
