(* lint: pretend-path lib/core/cursor_table.ml *)
(* Positive fixture: bare Hashtbl mutation in a concurrent module. *)

let register t id state = Hashtbl.replace t.table id state
