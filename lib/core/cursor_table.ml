module Obs = Secshare_obs

type reason = Drained | Client_close | Ttl | Cap | Connection_close

let reason_label = function
  | Drained -> "drained"
  | Client_close -> "client_close"
  | Ttl -> "ttl"
  | Cap -> "cap"
  | Connection_close -> "connection_close"

let reason_index = function
  | Drained -> 0
  | Client_close -> 1
  | Ttl -> 2
  | Cap -> 3
  | Connection_close -> 4

type scope = int

(* [owner] is the opening scope (0 = none); [touched] is a tick of the
   table's use counter, so recency is exact even when the clock
   stalls. *)
type 'a entry = {
  payload : 'a;
  owner : scope;
  mutable last_used : float;
  mutable touched : int;
}

type 'a t = {
  cursors : (int, 'a entry) Hashtbl.t;
  mutable next_id : int;
  mutable ticks : int;
  mutable next_scope : scope;
  removed : int array;  (** per [reason_index] *)
  ttl : float option;
  max_cursors : int;
  now : unit -> float;
  on_remove : int -> 'a -> reason -> unit;
  lock : Mutex.t;
}

let create ?ttl ?(now = Unix.gettimeofday) ~max_cursors ~on_remove () =
  {
    cursors = Hashtbl.create 16;
    next_id = 1;
    ticks = 0;
    next_scope = 1;
    removed = Array.make 5 0;
    ttl;
    max_cursors = max 1 max_cursors;
    now;
    on_remove;
    lock = Mutex.create ();
  }

(* Run [f] under the table lock.  [f] records its removals in [gone];
   their [on_remove] calls run after the lock is released, also when
   [f] raises, so a removal is never lost and no owner callback ever
   runs under the lock. *)
let with_lock t f =
  let gone = ref [] in
  Mutex.lock t.lock;
  Obs.Race_check.acquired "cursor-table";
  Obs.Race_check.access ~write:true "cursor_table.cursors";
  let result =
    match f gone with
    | v -> Ok v
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  Obs.Race_check.released "cursor-table";
  Mutex.unlock t.lock;
  List.iter (fun (id, payload, reason) -> t.on_remove id payload reason) (List.rev !gone);
  match result with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

(* The single removal path: every cursor leaves the table here. *)
let remove_locked t gone id entry reason =
  Hashtbl.remove t.cursors id;
  let i = reason_index reason in
  t.removed.(i) <- t.removed.(i) + 1;
  gone := (id, entry.payload, reason) :: !gone

let remove_where_locked t gone reason keep =
  Hashtbl.fold (fun id e acc -> if keep e then acc else (id, e) :: acc) t.cursors []
  |> List.iter (fun (id, e) -> remove_locked t gone id e reason)

let sweep_locked t gone =
  match t.ttl with
  | None -> ()
  | Some ttl ->
      let now = t.now () in
      remove_where_locked t gone Ttl (fun e -> now -. e.last_used <= ttl)

let touch_locked t e =
  t.ticks <- t.ticks + 1;
  e.touched <- t.ticks;
  e.last_used <- t.now ()

let evict_lru_locked t gone =
  while Hashtbl.length t.cursors >= t.max_cursors do
    let victim =
      Hashtbl.fold
        (fun id e acc ->
          match acc with
          | Some (_, best) when best.touched <= e.touched -> acc
          | _ -> Some (id, e))
        t.cursors None
    in
    Option.iter (fun (id, e) -> remove_locked t gone id e Cap) victim
  done

let scope t =
  with_lock t (fun _ ->
      let s = t.next_scope in
      t.next_scope <- s + 1;
      s)

let add ?(scope = 0) t payload =
  with_lock t (fun gone ->
      sweep_locked t gone;
      evict_lru_locked t gone;
      let id = t.next_id in
      t.next_id <- id + 1;
      let e = { payload; owner = scope; last_used = 0.0; touched = 0 } in
      touch_locked t e;
      Hashtbl.replace t.cursors id e;
      id)

let use t id f =
  with_lock t (fun gone ->
      sweep_locked t gone;
      match Hashtbl.find_opt t.cursors id with
      | None -> None
      | Some e ->
          touch_locked t e;
          Some (f e.payload))

let remove t id reason =
  with_lock t (fun gone ->
      Option.iter
        (fun e -> remove_locked t gone id e reason)
        (Hashtbl.find_opt t.cursors id))

let close_scope t scope =
  with_lock t (fun gone ->
      remove_where_locked t gone Connection_close (fun e -> e.owner <> scope))

let close_all t =
  with_lock t (fun gone -> remove_where_locked t gone Connection_close (fun _ -> false))

let sweep t =
  with_lock t (fun gone ->
      sweep_locked t gone;
      List.length !gone)

let length t = with_lock t (fun _ -> Hashtbl.length t.cursors)

let scoped t =
  with_lock t (fun _ ->
      Hashtbl.fold (fun _ e n -> if e.owner <> 0 then n + 1 else n) t.cursors 0)

let removed t reason = with_lock t (fun _ -> t.removed.(reason_index reason))
