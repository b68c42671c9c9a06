type 'a t = {
  mu : Mutex.t;
  nonempty : Condition.t;
  items : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Bqueue.create: capacity must be >= 1";
  {
    mu = Mutex.create ();
    nonempty = Condition.create ();
    items = Queue.create ();
    capacity;
    closed = false;
  }

let try_push t x =
  Mutex.protect t.mu (fun () ->
      if t.closed || Queue.length t.items >= t.capacity then false
      else begin
        Queue.push x t.items;
        Condition.signal t.nonempty;
        true
      end)

let pop t =
  Mutex.protect t.mu (fun () ->
      while Queue.is_empty t.items && not t.closed do
        Condition.wait t.nonempty t.mu
      done;
      Queue.take_opt t.items)

let close t =
  Mutex.protect t.mu (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let length t = Mutex.protect t.mu (fun () -> Queue.length t.items)
