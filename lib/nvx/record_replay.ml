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
module Pool = Varan_shmem.Pool

(* ------------------------------------------------------------------ *)
(* Log format                                                          *)
(* ------------------------------------------------------------------ *)

(* One record:
     u8  kind        u8 tid       u16 nargs (low 3 bits used)
     i32 sysno       i32 clock    i64 ret
     i64 args[nargs]
     i32 outlen      bytes out *)

let kind_to_int = function
  | Event.Ev_syscall -> 0
  | Event.Ev_signal -> 1
  | Event.Ev_fork -> 2
  | Event.Ev_exit -> 3

(* The header is split from the payload so pooled out-buffers can be
   appended straight out of the shared chunk ({!Pool.view} +
   [Buffer.add_subbytes]) without materialising an intermediate copy. *)
let serialize_header buf (e : Event.t) ~outlen =
  Buffer.add_uint8 buf (kind_to_int e.Event.kind);
  Buffer.add_uint8 buf e.Event.tid;
  Buffer.add_uint16_le buf (Array.length e.Event.args);
  Buffer.add_int32_le buf (Int32.of_int e.Event.sysno);
  Buffer.add_int32_le buf (Int32.of_int e.Event.clock);
  Buffer.add_int64_le buf (Int64.of_int e.Event.ret);
  Array.iter (fun a -> Buffer.add_int64_le buf (Int64.of_int a)) e.Event.args;
  Buffer.add_int32_le buf (Int32.of_int outlen)

let serialize buf (e : Event.t) ~out =
  let out = match out with Some b -> b | None -> Bytes.empty in
  serialize_header buf e ~outlen:(Bytes.length out);
  Buffer.add_bytes buf out

(* Bridge a lifecycle catch-up tape into the same log format: a degraded
   session's retained stream becomes an ordinary replay log from which
   fresh followers can later be provisioned. *)
let serialize_tape tape =
  let buf = Buffer.create 4096 in
  Tape.iter
    (fun en -> serialize buf (Tape.event_of_entry en) ~out:en.Tape.t_out)
    tape;
  Buffer.to_bytes buf

type cursor = { data : Bytes.t; mutable pos : int }

(* A record cut off mid-header or mid-payload (a crashed recorder, a
   truncated log file), or one whose kind byte names no event kind (a
   corrupt log), must decode to [None], not crash the replayer or replay
   a phantom event. *)
exception Short

let kind_of_int = function
  | 0 -> Event.Ev_syscall
  | 1 -> Event.Ev_signal
  | 2 -> Event.Ev_fork
  | 3 -> Event.Ev_exit
  | _ -> raise Short

let deserialize cur : (Event.kind * int * int * int * int * int array * Bytes.t) option =
  let len = Bytes.length cur.data in
  if cur.pos >= len then None
  else begin
    let start = cur.pos in
    let need n = if cur.pos + n > len then raise Short in
    let u8 () =
      need 1;
      let v = Char.code (Bytes.get cur.data cur.pos) in
      cur.pos <- cur.pos + 1;
      v
    in
    let u16 () =
      need 2;
      let v = Bytes.get_uint16_le cur.data cur.pos in
      cur.pos <- cur.pos + 2;
      v
    in
    let i32 () =
      need 4;
      let v = Int32.to_int (Bytes.get_int32_le cur.data cur.pos) in
      cur.pos <- cur.pos + 4;
      v
    in
    let i64 () =
      need 8;
      let v = Int64.to_int (Bytes.get_int64_le cur.data cur.pos) in
      cur.pos <- cur.pos + 8;
      v
    in
    try
      let kind = kind_of_int (u8 ()) in
      let tid = u8 () in
      let nargs = u16 () in
      let sysno = i32 () in
      let clock = i32 () in
      let ret = i64 () in
      (* Explicit recursion: [Array.init]'s evaluation order is
         unspecified, and the reads must land in stream order. *)
      let args = Array.make nargs 0 in
      for i = 0 to nargs - 1 do
        args.(i) <- i64 ()
      done;
      let outlen = i32 () in
      if outlen < 0 then raise Short;
      need outlen;
      let out = Bytes.sub cur.data cur.pos outlen in
      cur.pos <- cur.pos + outlen;
      Some (kind, tid, sysno, clock, ret, args, out)
    with Short ->
      (* Rewind so the caller can tell a clean end ([pos] at the data's
         end) from a torn tail record ([pos] short of it). *)
      cur.pos <- start;
      None
  end

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
          delta := Tape.event_at tape i :: !delta
        done;
        Ok { tt_at = at; tt_base = base; tt_checkpoint = cp; tt_delta = !delta }
      end
    end

(* ------------------------------------------------------------------ *)
(* Recorder                                                            *)
(* ------------------------------------------------------------------ *)

type recorder = {
  session : Session.t;
  ring : Event.t Ring.t;
  consumer : Event.t Ring.consumer;
  api : Api.t;
  buf : Buffer.t;
  mutable events : int;
  mutable stopping : bool;
  mutable stopped : bool;
}

let flush_threshold = 4096

let flush r fd =
  if Buffer.length r.buf > 0 then begin
    let data = Buffer.to_bytes r.buf in
    Buffer.clear r.buf;
    match Api.write_all r.api fd data with
    | Ok () -> ()
    | Error e -> failwith ("recorder: write failed: " ^ Errno.name e)
  end

let record session k ~tuple ~path =
  let ring = Session.tuple_ring session tuple in
  let consumer = Ring.subscribe ring in
  let proc = K.new_proc k "recorder" in
  let api = Api.direct k proc in
  let r =
    {
      session;
      ring;
      consumer;
      api;
      buf = Buffer.create flush_threshold;
      events = 0;
      stopping = false;
      stopped = false;
    }
  in
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
    let record_one e =
      (match e.Event.payload with
      | Some chunk ->
        (* Pooled payloads go straight from the shared chunk into the
           log buffer — the single copy on the record path. *)
        Pool.view chunk ~len:e.Event.payload_len (fun data off len ->
            serialize_header r.buf e ~outlen:len;
            Buffer.add_subbytes r.buf data off len);
        Session.release_payload session e
      | None -> serialize r.buf e ~out:e.Event.inline_out);
      r.events <- r.events + 1;
      if Buffer.length r.buf >= flush_threshold then flush r fd
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
          flush r fd;
          ignore (Api.close api fd);
          Ring.unsubscribe consumer;
          r.stopped <- true
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
  (* The recorder drains whatever is still in the ring, flushes its tail
     buffer, closes the log and deregisters itself. *)
  r.stopping <- true;
  Ring.poke r.ring

let recorded_events r = r.events

(* ------------------------------------------------------------------ *)
(* Replayer                                                            *)
(* ------------------------------------------------------------------ *)

type rstate = {
  r_idx : int;
  r_variant : Variant.t;
  mutable r_consumed : int;
  mutable r_alive : bool;
}

type replayer = {
  rp_ring : Event.t Ring.t;
  rstates : rstate array;
  mutable rp_crashes : (int * string) list;
  mutable rp_published : int;
}

exception Replay_divergence of string

let replay ?(config = Config.default) k ~path variants =
  if variants = [] then invalid_arg "Record_replay.replay: no variants";
  let cost = config.Config.cost in
  let ring = Ring.create ~size:config.Config.ring_size "replay-ring" in
  let rstates =
    Array.of_list
      (List.mapi
         (fun i v -> { r_idx = i; r_variant = v; r_consumed = 0; r_alive = true })
         variants)
  in
  let rp = { rp_ring = ring; rstates; rp_crashes = []; rp_published = 0 } in
  (* Consumers must register before the publisher starts; handles are
     resolved once, not per consume. *)
  let consumers = Array.map (fun _ -> Ring.subscribe ring) rstates in
  (* The replay leader: reads the log from persistent storage and
     publishes events into the ring for consumption by replay clients. *)
  ignore
    (E.spawn k.Types.eng ~name:"replay-leader" (fun () ->
         let proc = K.new_proc k "replay-leader" in
         let api = Api.direct k proc in
         let fd =
           match Api.openf api path Flags.o_rdonly with
           | Ok fd -> fd
           | Error e -> failwith ("replayer: open failed: " ^ Errno.name e)
         in
         let contents = Buffer.create 4096 in
         let rec read_all () =
           match Api.read api fd 4096 with
           | Ok b when Bytes.length b > 0 ->
             Buffer.add_bytes contents b;
             read_all ()
           | Ok _ -> ()
           | Error e -> failwith ("replayer: read failed: " ^ Errno.name e)
         in
         read_all ();
         ignore (Api.close api fd);
         let cur = { data = Buffer.to_bytes contents; pos = 0 } in
         let decode_one () =
           match deserialize cur with
           | None -> None
           | Some (kind, tid, sysno, clock, ret, args, out) ->
             let inline_out =
               if Bytes.length out > 0 then Some out else None
             in
             (* Replay events carry results inline regardless of size:
                the shared-memory pool is not reconstructed on replay. *)
             Some
               {
                 Event.kind;
                 sysno;
                 tid;
                 args;
                 ret;
                 clock;
                 payload = None;
                 payload_len = 0;
                 inline_out;
                 grant = None;
               }
         in
         (* Publish in runs of up to 64: one gate check and one consumer
            wakeup per batch; per-event publish cost is still charged. *)
         let batch_max = 64 in
         let scratch = Queue.create () in
         let rec publish_all () =
           Queue.clear scratch;
           let rec fill () =
             if Queue.length scratch < batch_max then
               match decode_one () with
               | Some e ->
                 Queue.add e scratch;
                 fill ()
               | None -> ()
           in
           fill ();
           let n = Queue.length scratch in
           if n > 0 then begin
             E.consume (cost.Cost.publish_event * n);
             Ring.publish_batch ring
               (Array.init n (fun _ -> Queue.pop scratch));
             rp.rp_published <- rp.rp_published + n;
             publish_all ()
           end
         in
         publish_all ()));
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
              rst.r_alive <- false;
              Ring.unsubscribe consumers.(i))
      in
      K.register_task k proc tid)
    rstates;
  rp

let replayed_events rp =
  Array.fold_left (fun acc r -> acc + r.r_consumed) 0 rp.rstates

let replay_ring rp = rp.rp_ring

let replay_crashes rp = List.rev rp.rp_crashes

(* ------------------------------------------------------------------ *)
(* Scribe baseline                                                     *)
(* ------------------------------------------------------------------ *)

let scribe_api ?(cost = Cost.default) k proc =
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
