(** Binary min-heap in a growable array, the priority queue behind the
    simulation kernel.

    [add] and [pop_exn] move O(log n) slots and allocate nothing, apart
    from the array doubling when it is full.  A popped slot is reset to
    the [dummy] given at creation, so the heap holds no element it no
    longer contains.  Ordering is supplied at creation time; for equal
    priorities the heap is *not* stable — callers needing deterministic
    tie-breaking (the simulator does) must encode a sequence number into
    the priority. *)

type 'a t

val create : leq:('a -> 'a -> bool) -> dummy:'a -> 'a t
(** [create ~leq ~dummy] is an empty heap ordered by [leq] (total
    preorder; [leq a b] means [a] has priority at least as high as [b]).
    [dummy] fills the unused slots; it is never returned. *)

val is_empty : 'a t -> bool
val size : 'a t -> int

val add : 'a t -> 'a -> unit

val min_exn : 'a t -> 'a
(** Smallest element, without removing it.
    @raise Invalid_argument on an empty heap. *)

val pop_exn : 'a t -> 'a
(** Remove and return the smallest element.
    @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit

val of_list : leq:('a -> 'a -> bool) -> dummy:'a -> 'a list -> 'a t

val to_sorted_list : 'a t -> 'a list
(** Drains the heap.  The heap is empty afterwards. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Fold over every element without disturbing the heap.  Traversal
    order is unspecified — use only order-insensitive accumulators. *)
