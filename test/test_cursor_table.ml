(* The cursor registry against a plain association-list model: random
   add / use / remove / sweep / scope-close steps under a fake clock.
   After every step the table must agree with the model on which
   cursors are open, and the cursors the step removed — reported
   through [on_remove] — must be exactly the model's, each once, with
   the model's reason: the least recently touched cursor for [Cap],
   the cursors idle past the TTL for [Ttl]. *)

module Cursor_table = Secshare_core.Cursor_table

type step =
  | Add of int option  (** scope index *)
  | Use of int  (** index into the ids handed out so far *)
  | Remove of int * Cursor_table.reason
  | Sweep
  | Tick of int  (** seconds *)
  | Close_scope of int

let scopes = 3

let reason_of = function
  | Cursor_table.Drained -> "Drained"
  | Client_close -> "Client_close"
  | Ttl -> "Ttl"
  | Cap -> "Cap"
  | Connection_close -> "Connection_close"

let show_step = function
  | Add None -> "Add"
  | Add (Some s) -> Printf.sprintf "Add(scope %d)" s
  | Use i -> Printf.sprintf "Use %d" i
  | Remove (i, r) -> Printf.sprintf "Remove(%d, %s)" i (reason_of r)
  | Sweep -> "Sweep"
  | Tick s -> Printf.sprintf "Tick %d" s
  | Close_scope s -> Printf.sprintf "Close_scope %d" s

let gen_step =
  let open QCheck2.Gen in
  frequency
    [
      (5, map (fun s -> Add s) (opt (int_bound (scopes - 1))));
      (4, map (fun i -> Use i) (int_bound 30));
      ( 2,
        map2
          (fun i r -> Remove (i, r))
          (int_bound 30)
          (oneofl [ Cursor_table.Drained; Client_close ]) );
      (1, return Sweep);
      (3, map (fun s -> Tick s) (int_bound 8));
      (1, map (fun s -> Close_scope s) (int_bound (scopes - 1)));
    ]

let gen_case =
  QCheck2.Gen.(
    triple (opt (int_range 1 12)) (int_range 1 5) (list_size (int_range 1 80) gen_step))

let print_case (ttl, cap, steps) =
  Printf.sprintf "ttl=%s cap=%d [%s]"
    (match ttl with None -> "none" | Some s -> string_of_int s)
    cap
    (String.concat "; " (List.map show_step steps))

(* One model cursor.  The payload is the cursor's add sequence number,
   so [on_remove] can be checked to hand back the right one. *)
type entry = {
  id : int;
  payload : int;
  scope : int option;
  mutable last_used : int;
  mutable touched : int;
}

let fail fmt = QCheck2.Test.fail_reportf fmt
let sorted l = List.sort compare l

let run_case (ttl, cap, steps) =
  let clock = ref 0 in
  let log = ref [] in
  let table =
    Cursor_table.create
      ?ttl:(Option.map float_of_int ttl)
      ~now:(fun () -> float_of_int !clock)
      ~max_cursors:cap
      ~on_remove:(fun id payload reason -> log := (id, payload, reason) :: !log)
      ()
  in
  let scope_tokens = Array.init scopes (fun _ -> Cursor_table.scope table) in
  let model = ref [] and ticks = ref 0 and issued = ref [] and adds = ref 0 in
  let counts = Hashtbl.create 5 in
  let count reason = Option.value (Hashtbl.find_opt counts reason) ~default:0 in
  let touch e =
    incr ticks;
    e.touched <- !ticks;
    e.last_used <- !clock
  in
  (* the removals the model expects from the current step *)
  let expected = ref [] in
  let drop reason keep =
    let gone, kept = List.partition (fun e -> not (keep e)) !model in
    model := kept;
    List.iter
      (fun e ->
        expected := (e.id, e.payload, reason) :: !expected;
        Hashtbl.replace counts reason (count reason + 1))
      gone
  in
  let sweep () =
    match ttl with
    | None -> ()
    | Some ttl -> drop Cursor_table.Ttl (fun e -> !clock - e.last_used <= ttl)
  in
  let pick i = match !issued with [] -> 0 | l -> List.nth l (i mod List.length l) in
  let find id = List.find_opt (fun e -> e.id = id) !model in
  List.iter
    (fun step ->
      log := [];
      expected := [];
      (match step with
      | Add scope ->
          sweep ();
          while List.length !model >= cap do
            let victim =
              List.fold_left
                (fun best e -> if e.touched < best.touched then e else best)
                (List.hd !model) !model
            in
            drop Cursor_table.Cap (fun e -> e.id <> victim.id)
          done;
          incr adds;
          let id =
            Cursor_table.add
              ?scope:(Option.map (fun s -> scope_tokens.(s)) scope)
              table !adds
          in
          if List.mem id !issued then fail "id %d handed out twice" id;
          issued := id :: !issued;
          let e = { id; payload = !adds; scope; last_used = 0; touched = 0 } in
          touch e;
          model := e :: !model
      | Use i -> (
          let id = pick i in
          sweep ();
          let want = find id in
          Option.iter touch want;
          match (Cursor_table.use table id Fun.id, want) with
          | Some got, Some e when got = e.payload -> ()
          | None, None -> ()
          | _ -> fail "use %d disagrees with the model" id)
      | Remove (i, reason) ->
          let id = pick i in
          drop reason (fun e -> e.id <> id);
          Cursor_table.remove table id reason
      | Sweep ->
          sweep ();
          let n = Cursor_table.sweep table in
          if n <> List.length !expected then fail "sweep removed %d, model %d" n
            (List.length !expected)
      | Tick s -> clock := !clock + s
      | Close_scope s ->
          drop Cursor_table.Connection_close (fun e -> e.scope <> Some s);
          Cursor_table.close_scope table scope_tokens.(s));
      if sorted !log <> sorted !expected then
        fail "after %s: removed [%s], model [%s]" (show_step step)
          (String.concat "; "
             (List.map (fun (id, _, r) -> Printf.sprintf "%d %s" id (reason_of r)) !log))
          (String.concat "; "
             (List.map
                (fun (id, _, r) -> Printf.sprintf "%d %s" id (reason_of r))
                !expected));
      let open_now = Cursor_table.length table in
      if open_now <> List.length !model then
        fail "after %s: %d open, model %d" (show_step step) open_now (List.length !model);
      if open_now > cap then fail "%d open over the cap %d" open_now cap;
      let scoped = List.length (List.filter (fun e -> e.scope <> None) !model) in
      if Cursor_table.scoped table <> scoped then fail "scoped count drifted";
      List.iter
        (fun r ->
          if Cursor_table.removed table r <> count r then
            fail "removed %s: %d, model %d" (reason_of r) (Cursor_table.removed table r)
              (count r))
        [ Drained; Client_close; Ttl; Cap; Connection_close ])
    steps;
  (* every cursor ever opened is either still open or left exactly once *)
  let left = Hashtbl.fold (fun _ n acc -> n + acc) counts 0 in
  left + List.length !model = List.length !issued

let model_test =
  QCheck2.Test.make ~count:500 ~name:"cursor table = association-list model"
    ~print:print_case gen_case run_case

let () =
  Alcotest.run "cursor_table"
    [ ("model", [ QCheck_alcotest.to_alcotest model_test ]) ]
