module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Types = Varan_kernel.Types
module Flags = Varan_kernel.Flags
module Sysno = Varan_syscall.Sysno
module Args = Varan_syscall.Args
module Errno = Varan_syscall.Errno
module Cost = Varan_cycles.Cost
module Ring = Varan_ringbuf.Ring
module Event = Varan_ringbuf.Event

(* ------------------------------------------------------------------ *)
(* Log format                                                          *)
(* ------------------------------------------------------------------ *)

(* The log is a sequence of frames: a u32 little-endian length, then one
   tape segment's image ({!Tape.images}). Only the last frame may hold
   fewer than [Tape.segment_events] events, so a log has one spelling
   per event sequence. *)
let frame_image img =
  let n = Bytes.length img in
  if n > 0xffff_ffff then invalid_arg "Record_replay: frame image over 4 GiB";
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.blit img 0 b 4 n;
  b

(* Bridge a lifecycle catch-up tape into the log: a degraded session's
   retained stream becomes an ordinary replay log from which fresh
   followers can later be provisioned. A tape retires whole segments, so
   each retained segment's image is one frame, taken as the tape stores
   it. *)
let serialize_tape tape =
  Bytes.concat Bytes.empty (List.map frame_image (Tape.images tape))

(* The one frame decoder. [read n] hands out the log's next [n] bytes,
   or fewer only at its end; each whole frame goes to [on_frame] before
   the next is read. A crashed recorder or a truncated file leaves a
   torn last frame, and a corrupt one holds bytes no writer produced:
   either ends decoding at the last whole frame, with the reason, and
   never yields an event the log does not hold. A short frame is whole
   only if nothing follows it, so it is held back until one more read
   finds the end. *)
let decode_frames read ~on_frame =
  let rec from pos =
    let stop why = Some (Printf.sprintf "frame at byte %d: %s" pos why) in
    let header = read 4 in
    if Bytes.length header = 0 then None
    else if Bytes.length header < 4 then stop "truncated length"
    else begin
      let n = Int32.to_int (Bytes.get_int32_le header 0) land 0xffff_ffff in
      let img = read n in
      if Bytes.length img < n then stop "length past the end"
      else
        match Tape.of_image img with
        | Error why -> stop why
        | Ok events ->
          let k = Array.length events in
          let full = k = Tape.segment_events in
          if k = 0 || ((not full) && Bytes.length (read 1) > 0) then
            stop (Printf.sprintf "%d events, not %d" k Tape.segment_events)
          else begin
            on_frame events;
            if full then from (pos + 4 + n) else None
          end
    end
  in
  from 0

let read_log log =
  let pos = ref 0 and frames = ref [] in
  let read n =
    let n = min n (Bytes.length log - !pos) in
    pos := !pos + n;
    Bytes.sub log (!pos - n) n
  in
  let stopped =
    decode_frames read ~on_frame:(fun es -> frames := es :: !frames)
  in
  (List.concat_map Array.to_list (List.rev !frames), stopped)

(* ------------------------------------------------------------------ *)
(* Time travel                                                         *)
(* ------------------------------------------------------------------ *)

(* [varan replay --at <seq>]: reconstruct the state a follower would hold
   after consuming tuple 0's first [at] events, the way a checkpointed
   rejoin does — restore the nearest checkpoint at or below [at], then
   replay only the tape delta behind it. With no usable checkpoint the
   whole retained prefix replays; a position below the oldest retained
   segment (and not covered by any checkpoint) is a clean error. *)
type time_travel = {
  tt_at : int;  (** the requested stream position *)
  tt_base : int;  (** oldest retained tape index at lookup time *)
  tt_checkpoint : Checkpoint.snapshot option;
      (** the snapshot a restore would start from; [None] = cold start *)
  tt_delta : Event.t list;  (** the tape events replayed after it *)
}

let time_travel session ~at =
  match Session.tuple_tape session 0 with
  | None -> Error "no tape: the session ran without a lifecycle policy"
  | Some tape ->
    let total = Tape.length tape in
    let base = Tape.base tape in
    if at < 0 || at > total then
      Error (Printf.sprintf "sequence %d out of range [0, %d]" at total)
    else begin
      let ck = Session.checkpoint_store session in
      let cp =
        match Checkpoint.nearest_any ck ~seq:at with
        | Some c when c.Checkpoint.cp_seq >= base -> Some c
        | _ -> None
      in
      let start =
        match cp with Some c -> c.Checkpoint.cp_seq | None -> 0
      in
      if start < base then
        Error
          (Printf.sprintf
             "sequence %d predates the oldest retained tape segment (base \
              %d) and no checkpoint covers it"
             at base)
      else begin
        let delta = ref [] in
        for i = at - 1 downto start do
          delta := Tape.get tape i :: !delta
        done;
        Ok { tt_at = at; tt_base = base; tt_checkpoint = cp; tt_delta = !delta }
      end
    end

(* ------------------------------------------------------------------ *)
(* Recorder                                                            *)
(* ------------------------------------------------------------------ *)

type recorder = {
  ring : Event.t Ring.t;
  mutable events : int;
  mutable stopping : bool;
}

let record session k ~tuple ~path =
  let ring = Session.tuple_ring session tuple in
  let consumer = Ring.subscribe ring in
  let proc = K.new_proc k "recorder" in
  let api = Api.direct k proc in
  let r = { ring; events = 0; stopping = false } in
  let task () =
    (* The log is opened from inside the recorder's own task: syscalls
       only exist in task context. *)
    let fd =
      match
        Api.openf api path (Flags.o_wronly lor Flags.o_creat lor Flags.o_trunc)
      with
      | Ok fd -> fd
      | Error e -> failwith ("recorder: open failed: " ^ Errno.name e)
    in
    (* Events go to a tape of one segment, written out as one frame when
       it is full and at the end; pooled payloads are copied out of
       their chunk, which is released at once. *)
    let segment = ref (Tape.create ()) in
    let flush () =
      let data = serialize_tape !segment in
      segment := Tape.create ();
      if Bytes.length data > 0 then
        match Api.write_all api fd data with
        | Ok () -> ()
        | Error e -> failwith ("recorder: write failed: " ^ Errno.name e)
    in
    let record_one e =
      let e = Session.materialize_payload session e in
      Tape.append !segment e ~out:e.Event.inline_out;
      r.events <- r.events + 1;
      if Tape.length !segment = Tape.segment_events then flush ()
    in
    (* Drain in runs: when the recorder lags (it writes to disk between
       reads) it catches up with one gate check and one producer wakeup
       per batch instead of per event. *)
    let rec loop () =
      match Ring.try_consume_batch_h consumer ~max:64 with
      | _ :: _ as batch ->
        List.iter record_one batch;
        loop ()
      | [] ->
        if r.stopping then begin
          flush ();
          ignore (Api.close api fd);
          Ring.unsubscribe consumer
        end
        else begin
          Ring.wait_activity ring;
          loop ()
        end
    in
    loop ()
  in
  let tid = E.spawn k.Types.eng ~name:"recorder" task in
  K.register_task k proc tid;
  r

let stop r =
  (* The recorder drains whatever is still in the ring, writes the
     partial last frame, closes the log and deregisters itself. *)
  r.stopping <- true;
  Ring.poke r.ring

let recorded_events r = r.events

(* ------------------------------------------------------------------ *)
(* Replayer                                                            *)
(* ------------------------------------------------------------------ *)

type rstate = { r_variant : Variant.t; mutable r_consumed : int }

type replayer = {
  rp_ring : Event.t Ring.t;
  rstates : rstate array;
  mutable rp_crashes : (int * string) list;
  mutable rp_stopped : string option;  (* why the log ended early *)
}

exception Replay_divergence of string

let replay k ~path variants =
  if variants = [] then invalid_arg "Record_replay.replay: no variants";
  let cost = K.cost k in
  let ring = Ring.create ~size:Config.default.Config.ring_size "replay-ring" in
  let rstates =
    Array.of_list
      (List.map (fun v -> { r_variant = v; r_consumed = 0 }) variants)
  in
  let rp = { rp_ring = ring; rstates; rp_crashes = []; rp_stopped = None } in
  (* Consumers must register before the publisher starts; handles are
     resolved once, not per consume. *)
  let consumers = Array.map (fun _ -> Ring.subscribe ring) rstates in
  (* The replay leader: streams the log from persistent storage a frame
     at a time and publishes each frame into the ring, for the replay
     clients, before it reads the next. A torn or corrupt tail ends the
     replay at the last whole frame, as it ended the recording. Replay
     events carry results inline regardless of size: the shared-memory
     pool is not reconstructed on replay. *)
  ignore
    (E.spawn k.Types.eng ~name:"replay-leader" (fun () ->
         let proc = K.new_proc k "replay-leader" in
         let api = Api.direct k proc in
         let fd =
           match Api.openf api path Flags.o_rdonly with
           | Ok fd -> fd
           | Error e -> failwith ("replayer: open failed: " ^ Errno.name e)
         in
         (* The log's next [n] bytes, or fewer at its end. *)
         let read n =
           let rec chunks n acc =
             if n = 0 then acc
             else
               match Api.read api fd n with
               | Ok b when Bytes.length b > 0 ->
                 chunks (n - Bytes.length b) (b :: acc)
               | Ok _ -> acc
               | Error e -> failwith ("replayer: read failed: " ^ Errno.name e)
           in
           Bytes.concat Bytes.empty (List.rev (chunks n []))
         in
         (* Publish in runs of up to 64: one gate check and one consumer
            wakeup per batch; per-event publish cost is still charged. *)
         let publish events =
           let rec from i =
             let n = min 64 (Array.length events - i) in
             if n > 0 then begin
               E.consume (cost.Cost.publish_event * n);
               Ring.publish_batch ring (Array.sub events i n);
               from (i + n)
             end
           in
           from 0
         in
         rp.rp_stopped <- decode_frames read ~on_frame:publish;
         ignore (Api.close api fd)));
  (* Replay clients: every streamed call returns the recorded result. *)
  Array.iteri
    (fun i rst ->
      let v = rst.r_variant in
      let proc = K.new_proc k ("replay." ^ v.Variant.v_name) in
      let table = Syscall_table.follower in
      let sys sysno args =
        match Syscall_table.lookup table sysno with
        | Syscall_table.Local -> K.exec k proc sysno args
        | Syscall_table.Unsupported -> Args.err Errno.ENOSYS
        | Syscall_table.Stream | Syscall_table.Virtual -> (
          (* Recorded signal deliveries interrupt the pending call just
             as they did live: run this client's own handler and keep
             waiting for the call's result event. *)
          let rec next_event () =
            E.consume cost.Cost.consume_event;
            let e = Ring.consume_h consumers.(i) in
            rst.r_consumed <- rst.r_consumed + 1;
            if e.Event.kind = Event.Ev_signal then begin
              (match K.handler_for proc e.Event.sysno with
              | Some f -> f e.Event.sysno
              | None -> ());
              next_event ()
            end
            else e
          in
          let e = next_event () in
          if e.Event.sysno <> Sysno.to_int sysno then
            raise
              (Replay_divergence
                 (Printf.sprintf "log has %d, client wants %s" e.Event.sysno
                    (Sysno.name sysno)))
          else { Args.ret = e.Event.ret; out = e.Event.inline_out; fd_object = None })
      in
      let api = Api.with_sys proc sys in
      let body = v.Variant.program.Variant.body in
      let tid =
        E.spawn k.Types.eng ~name:("replay." ^ v.Variant.v_name) (fun () ->
            try body ~unit_idx:0 api with
            | E.Killed -> ()
            | exn ->
              rp.rp_crashes <- (i, Printexc.to_string exn) :: rp.rp_crashes;
              Ring.unsubscribe consumers.(i))
      in
      K.register_task k proc tid)
    rstates;
  rp

let replayed_events rp =
  Array.fold_left (fun acc r -> acc + r.r_consumed) 0 rp.rstates

let replay_ring rp = rp.rp_ring

let replay_crashes rp = List.rev rp.rp_crashes
let replay_stopped rp = rp.rp_stopped

(* ------------------------------------------------------------------ *)
(* Scribe baseline                                                     *)
(* ------------------------------------------------------------------ *)

let scribe_api k proc =
  let cost = K.cost k in
  let sys sysno args =
    (* In-kernel recording: every syscall pays the logging overhead
       inline, including copying its payloads into the kernel log. *)
    E.consume cost.Cost.scribe_per_syscall;
    let result = K.exec k proc sysno args in
    let bytes =
      Args.payload_size args
      + (match result.Args.out with Some b -> Bytes.length b | None -> 0)
    in
    E.consume
      (Cost.copy_cycles ~rate_c100:cost.Cost.scribe_copy_per_byte_c100 bytes);
    result
  in
  Api.with_sys proc sys
