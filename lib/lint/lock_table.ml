(* The declared lock table, shared by [Pass_lock_order] (intra-file
   acquisition order) and [Pass_races] (guarded-by checking).  A lock
   site is identified by the basename of the file that owns it and the
   last identifier of the lock expression; its class name is the
   handle the concurrency model's [Guarded_by] declarations use.

   New lock sites MUST be declared here (and in DESIGN.md §16) or the
   lock-order pass reports lock-order/undeclared.  Ranks encode the
   acquisition partial order: a lock may only be taken while holding
   strictly lower-ranked locks.  Leaf ranks (>= 44) belong to the
   observability locks, which are taken under everything. *)

open Parsetree

type klass = { class_name : string; rank : int }

let fixture_base base =
  let has_prefix p =
    String.length base >= String.length p && String.sub base 0 (String.length p) = p
  in
  has_prefix "bad_race_" || has_prefix "good_race_"

let classify ~file ~lock_name =
  match (Ast_util.basename file, lock_name) with
  | "node_table.ml", "write_lock" -> Some { class_name = "table-writer"; rank = 10 }
  | "cursor_table.ml", ("t" | "lock") -> Some { class_name = "cursor-table"; rank = 12 }
  | "server.ml", ("t" | "lock") -> Some { class_name = "rpc-server-stats"; rank = 13 }
  | "pool.ml", "lock" -> Some { class_name = "pool-queue"; rank = 15 }
  | "metrics_http.ml", "lock" -> Some { class_name = "metrics-http"; rank = 17 }
  | "pager.ml", "meta" -> Some { class_name = "pager-meta"; rank = 20 }
  | "pager.ml", ("latch" | "stripe") -> Some { class_name = "pager-stripe"; rank = 30 }
  | "wal.ml", "lock" -> Some { class_name = "wal-append"; rank = 35 }
  | "pager.ml", "io" -> Some { class_name = "pager-io"; rank = 40 }
  | "trace.ml", "ambient_lock" -> Some { class_name = "trace-ambient"; rank = 44 }
  | "trace.ml", "ring_lock" -> Some { class_name = "trace-ring"; rank = 45 }
  | "trace.ml", "log_lock" -> Some { class_name = "trace-log"; rank = 46 }
  | "registry.ml", ("t" | "registry" | "lock") ->
      Some { class_name = "obs-registry"; rank = 47 }
  | "histogram.ml", ("t" | "lock" | "into") ->
      Some { class_name = "obs-histogram"; rank = 48 }
  | "events.ml", "emit_lock" -> Some { class_name = "events-sink"; rank = 49 }
  | "pager.ml", "witness_lock" -> Some { class_name = "lock-witness"; rank = 50 }
  | "race_check.ml", "lock" -> Some { class_name = "race-witness"; rank = 55 }
  | base, ("lock" | "fixture_lock") when fixture_base base ->
      Some { class_name = "fixture-lock"; rank = 60 }
  | _ -> None

(* Every class name above, for validating [Guarded_by] declarations. *)
let class_names =
  [
    "table-writer";
    "cursor-table";
    "rpc-server-stats";
    "pool-queue";
    "metrics-http";
    "pager-meta";
    "pager-stripe";
    "wal-append";
    "pager-io";
    "trace-ambient";
    "trace-ring";
    "trace-log";
    "obs-registry";
    "obs-histogram";
    "events-sink";
    "lock-witness";
    "race-witness";
    "fixture-lock";
  ]

(* Directories whose lock sites the order pass analyzes.  Everything
   under lib/ outside this set must not create locks at all; the pass
   reports lint-coverage/lock-order-skip if one does. *)
let in_scope path =
  List.exists
    (fun prefix -> Ast_util.path_has_prefix path ~prefix)
    [ "lib/store/"; "lib/core/"; "lib/rpc/"; "lib/obs/"; "lib/shard/" ]

(* Last identifier of a lock expression: [st.meta] -> "meta",
   [stripe.latch] -> "latch", [t] -> "t". *)
let lock_name_of expr =
  match expr.pexp_desc with
  | Pexp_field (_, lid) -> Some (Ast_util.field_last lid)
  | Pexp_ident { txt; _ } -> Some (Ast_util.last_of (Ast_util.flatten_longident txt))
  | _ -> None

let mutex_call expr which =
  match expr.pexp_desc with
  | Pexp_apply (fn, [ (Asttypes.Nolabel, arg) ]) -> (
      match Ast_util.ident_path fn with
      | Some [ "Mutex"; f ] when String.equal f which -> Some arg
      | _ -> None)
  | _ -> None
