(* lint: pretend-path lib/shard/router.ml *)
(* Negative fixture: router code that fans calls out synchronously and
   leaves every cursor-table mutation to the shared registry. *)

let fan_out t request = List.map (fun shard -> call shard request) t.shards

let register t state = Cursor_table.add t.cursors state
