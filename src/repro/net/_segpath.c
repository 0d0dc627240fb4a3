/* The per-segment hops of the network model, compiled.
 *
 * Every function here is the implementation of one method of a Python
 * class in repro.net (bound with PyInstanceMethod_New by bind_nic,
 * bind_port and bind_transport), and the Python classes keep owning all
 * state: slots are read and written by member-descriptor offset,
 * resolved once when the class is bound, and every other attribute goes
 * through the ordinary attribute protocol.  Each body mirrors the Python
 * statement order: the same heap entries with the same sequence numbers,
 * the same _steps/_elided credits, and every float expression evaluated
 * in the same order with plain IEEE double operations (the loader builds
 * with -ffp-contract=off, so no a*b+c is fused).  Numbers whose type the
 * Python code does not fix (window, buffer_bytes, sizes, counters) go
 * through the generic number protocol unless both operands are exact
 * floats.
 *
 * Rare branches stay Python methods that these functions call: egress
 * and switch drops, qdisc head drops, retry arming, the no-fabric link
 * delivery, the loss-tolerant window refill and receive-state creation.
 *
 * The reference Python bodies live in tests/net/segpath_reference.py.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#ifdef Py_T_OBJECT_EX
#define SLOT_TYPE Py_T_OBJECT_EX
#define SLOT_READONLY Py_READONLY
#else
#define SLOT_TYPE T_OBJECT_EX
#define SLOT_READONLY READONLY
#endif

/* ------------------------------------------------------------------ */
/* Attribute access                                                    */
/* ------------------------------------------------------------------ */

/* One attribute of one class.  ``type`` and ``offset`` are set when the
 * class is bound and its attribute is a slot; an instance of exactly
 * that type is then read by offset, anything else by name. */
typedef struct {
    const char *name;
    PyObject *pyname;
    PyTypeObject *type;
    Py_ssize_t offset;
} Field;

#define FIELD(name) {name, NULL, NULL, 0}

static inline PyObject *
fget(PyObject *obj, Field *f)
{
    if (f->type != NULL && Py_IS_TYPE(obj, f->type)) {
        PyObject *v = *(PyObject **)((char *)obj + f->offset);
        if (v == NULL) {
            PyErr_Format(PyExc_AttributeError,
                         "'%.200s' object has no attribute '%s'",
                         Py_TYPE(obj)->tp_name, f->name);
            return NULL;
        }
        Py_INCREF(v);
        return v;
    }
    return PyObject_GetAttr(obj, f->pyname);
}

/* Store ``v`` (borrowed). */
static inline int
fset(PyObject *obj, Field *f, PyObject *v)
{
    if (f->type != NULL && Py_IS_TYPE(obj, f->type)) {
        PyObject **p = (PyObject **)((char *)obj + f->offset);
        PyObject *old = *p;
        Py_INCREF(v);
        *p = v;
        Py_XDECREF(old);
        return 0;
    }
    return PyObject_SetAttr(obj, f->pyname, v);
}

/* Store ``v`` and release the caller's reference (NULL propagates). */
static inline int
fset_steal(PyObject *obj, Field *f, PyObject *v)
{
    int r;
    if (v == NULL)
        return -1;
    r = fset(obj, f, v);
    Py_DECREF(v);
    return r;
}

/* The offset of ``f`` in instances of ``cls``, checking that the class
 * attribute is a writable object slot (a member_descriptor) of ``cls``
 * or a base: a renamed or replaced slot fails here, at import. */
static int
slot_offset(PyTypeObject *cls, Field *f, Py_ssize_t *offset)
{
    PyObject *descr;
    PyMemberDef *member;

    descr = PyObject_GetAttr((PyObject *)cls, f->pyname);
    if (descr == NULL)
        return -1;
    if (!Py_IS_TYPE(descr, &PyMemberDescr_Type)) {
        PyErr_Format(PyExc_TypeError,
                     "%.200s.%s is a %.200s, not a slot (member_descriptor)",
                     cls->tp_name, f->name, Py_TYPE(descr)->tp_name);
        Py_DECREF(descr);
        return -1;
    }
    member = ((PyMemberDescrObject *)descr)->d_member;
    if (member->type != SLOT_TYPE || (member->flags & SLOT_READONLY)
            || !PyType_IsSubtype(cls, PyDescr_TYPE(descr))) {
        PyErr_Format(PyExc_TypeError,
                     "%.200s.%s is not a writable object slot of the class",
                     cls->tp_name, f->name);
        Py_DECREF(descr);
        return -1;
    }
    *offset = member->offset;
    Py_DECREF(descr);
    return 0;
}

/* Method and attribute names. */
static PyObject *s_append, *s_popleft, *s_get, *s_pop, *s_enqueue,
    *s_dequeue, *s_cancel, *s_note_drop, *s_arm_retry, *s_egress_drop,
    *s_link_deliver, *s_record_drop, *s_refill, *s_send, *s_kick, *s_tx_done,
    *s_admit, *s_settle, *s_elided_ingress, *s_dst_host, *s_dst_port,
    *s_host_id;

static PyObject *zero, *one, *float_one, *empty_str, *empty_tuple;
static PyObject *heappush;              /* _heapq.heappush */
static PyTypeObject *deque_type;
static PyObject *deque_append, *deque_popleft;

/* Bound classes and errors (owned references; NULL until bound). */
static PyTypeObject *NIC_type, *PFifo_type, *Segment_type, *Message_type,
    *FlowKey_type, *Queue_type, *Sim_type, *Port_type, *Switch_type,
    *Transport_type, *SendState_type, *RecvState_type;
static PyObject *NetworkError;

/* The function objects behind the bound methods, for direct calls. */
static PyObject *fn_tx_done, *fn_settle, *fn_serialized, *fn_arrival;

static Field NIC_sim = FIELD("sim"), NIC_host_id = FIELD("host_id"),
    NIC_rate = FIELD("rate"), NIC_qdisc = FIELD("qdisc"),
    NIC_on_segment_sent = FIELD("on_segment_sent"),
    NIC_on_receive = FIELD("on_receive"),
    NIC_link_latency = FIELD("_link_latency"),
    NIC_fab_switch = FIELD("_fab_switch"), NIC_fab_ports = FIELD("_fab_ports"),
    NIC_tx_busy = FIELD("_tx_busy"), NIC_retry_event = FIELD("_retry_event"),
    NIC_bytes_tx = FIELD("bytes_tx"), NIC_bytes_rx = FIELD("bytes_rx"),
    NIC_segments_tx = FIELD("segments_tx"),
    NIC_segments_rx = FIELD("segments_rx"),
    NIC_busy_time = FIELD("busy_time"), NIC_busy_since = FIELD("_busy_since"),
    NIC_loss_tolerant = FIELD("loss_tolerant");

static Field Q_limit = FIELD("limit"), Q_queue = FIELD("_queue"),
    Q_bytes = FIELD("_bytes");

static Field SEG_message = FIELD("message"), SEG_size = FIELD("size"),
    SEG_flow = FIELD("flow");

static Field MSG_size = FIELD("size"), MSG_msg_id = FIELD("msg_id"),
    MSG_flow = FIELD("flow"), MSG_kind = FIELD("kind"),
    MSG_delivered_at = FIELD("delivered_at");

static Field EQ_heap = FIELD("_heap"), EQ_seq = FIELD("_seq"),
    EQ_live = FIELD("_live");

static Field P_sim = FIELD("sim"), P_deliver = FIELD("deliver"),
    P_buffer_bytes = FIELD("buffer_bytes"),
    P_queued_bytes = FIELD("_queued_bytes"), P_bytes_tx = FIELD("bytes_tx"),
    P_busy_time = FIELD("busy_time"), P_max_backlog = FIELD("max_backlog"),
    P_free_at = FIELD("_free_at"), P_last_start = FIELD("_last_start"),
    P_wait = FIELD("_wait"), P_pending = FIELD("_pending"),
    P_acc = FIELD("_acc"), P_rate = FIELD("_rate"), P_lat = FIELD("_lat"),
    P_rx_nic = FIELD("_rx_nic"), P_on_drop = FIELD("on_drop"),
    P_drops = FIELD("drops"), P_dropped_bytes = FIELD("dropped_bytes");

static Field T_sim = FIELD("sim"), T_nic = FIELD("nic"),
    T_send_states = FIELD("_send_states"),
    T_recv_states = FIELD("_recv_states"), T_listeners = FIELD("_listeners"),
    T_on_deliver = FIELD("on_deliver"),
    T_tolerate_unrouted = FIELD("tolerate_unrouted"),
    T_messages_delivered = FIELD("messages_delivered"),
    T_messages_unrouted = FIELD("messages_unrouted");

static Field SS_pending = FIELD("pending"), SS_in_flight = FIELD("in_flight"),
    SS_window = FIELD("window"), SS_base_window = FIELD("base_window"),
    SS_ssthresh = FIELD("ssthresh");

static Field RS_received = FIELD("received");

static Field SIM_now = FIELD("now"), SIM_events = FIELD("events"),
    SIM_steps = FIELD("_steps"), SIM_elided = FIELD("_elided");

static Field SW_forwarded = FIELD("segments_forwarded");

static Field *ALL_FIELDS[] = {
    &NIC_sim, &NIC_host_id, &NIC_rate, &NIC_qdisc, &NIC_on_segment_sent,
    &NIC_on_receive, &NIC_link_latency, &NIC_fab_switch, &NIC_fab_ports,
    &NIC_tx_busy, &NIC_retry_event, &NIC_bytes_tx, &NIC_bytes_rx,
    &NIC_segments_tx, &NIC_segments_rx, &NIC_busy_time, &NIC_busy_since,
    &NIC_loss_tolerant,
    &Q_limit, &Q_queue, &Q_bytes,
    &SEG_message, &SEG_size, &SEG_flow,
    &MSG_size, &MSG_msg_id, &MSG_flow, &MSG_kind, &MSG_delivered_at,
    &EQ_heap, &EQ_seq, &EQ_live,
    &P_sim, &P_deliver, &P_buffer_bytes, &P_queued_bytes, &P_bytes_tx,
    &P_busy_time, &P_max_backlog, &P_free_at, &P_last_start, &P_wait,
    &P_pending, &P_acc, &P_rate, &P_lat, &P_rx_nic,
    &T_sim, &T_nic, &T_send_states, &T_recv_states, &T_listeners,
    &T_on_deliver, &T_tolerate_unrouted, &T_messages_delivered,
    &T_messages_unrouted,
    &SS_pending, &SS_in_flight, &SS_window, &SS_base_window, &SS_ssthresh,
    &RS_received,
    &SIM_now, &SIM_events, &SIM_steps, &SIM_elided,
    &SW_forwarded,
    &P_on_drop, &P_drops, &P_dropped_bytes,
    NULL,
};

/* ------------------------------------------------------------------ */
/* Python semantics helpers                                            */
/* ------------------------------------------------------------------ */

/* ``bool(o)``: 1, 0 or -1. */
static inline int
truth(PyObject *o)
{
    if (o == Py_True)
        return 1;
    if (o == Py_False || o == Py_None)
        return 0;
    return PyObject_IsTrue(o);
}

/* Python numbers that are exactly representable as a double: floats,
 * and ints of at most 53 bits.  On two of them, comparisons are exact
 * as doubles, and so are the float operations Python performs (it
 * converts such an int to the same double before operating). */
#define EXACT_INT_LIMIT 9007199254740992LL  /* 2**53 */

static inline int
as_double(PyObject *o, double *d)
{
    if (PyFloat_CheckExact(o)) {
        *d = PyFloat_AS_DOUBLE(o);
        return 1;
    }
    if (PyLong_CheckExact(o)) {
        int overflow;
        long long v = PyLong_AsLongLongAndOverflow(o, &overflow);
        if (overflow == 0 && v <= EXACT_INT_LIMIT && v >= -EXACT_INT_LIMIT) {
            *d = (double)v;
            return 1;
        }
        if (v == -1 && PyErr_Occurred())
            PyErr_Clear();
    }
    return 0;
}

/* ``a <op> b`` as an ``if`` test evaluates it: 1, 0 or -1. */
static int
compare(PyObject *a, PyObject *b, int op)
{
    PyObject *r;
    double x, y;
    int t;
    if (as_double(a, &x) && as_double(b, &y)) {
        switch (op) {
        case Py_LT: return x < y;
        case Py_LE: return x <= y;
        case Py_EQ: return x == y;
        case Py_NE: return x != y;
        case Py_GT: return x > y;
        default: return x >= y;
        }
    }
    r = PyObject_RichCompare(a, b, op);
    if (r == NULL)
        return -1;
    t = truth(r);
    Py_DECREF(r);
    return t;
}

/* ``a + b`` and ``a - b``: double arithmetic when Python's would be a
 * float operation on exact operands (int + int stays an int). */
static inline PyObject *
add(PyObject *a, PyObject *b)
{
    double x, y;
    if ((PyFloat_CheckExact(a) || PyFloat_CheckExact(b))
            && as_double(a, &x) && as_double(b, &y))
        return PyFloat_FromDouble(x + y);
    return PyNumber_Add(a, b);
}

static inline PyObject *
sub(PyObject *a, PyObject *b)
{
    double x, y;
    if ((PyFloat_CheckExact(a) || PyFloat_CheckExact(b))
            && as_double(a, &x) && as_double(b, &y))
        return PyFloat_FromDouble(x - y);
    return PyNumber_Subtract(a, b);
}

/* ``a / b``: on exact operands Python divides the doubles too (for two
 * ints of at most 53 bits as well); zero division takes Python's path
 * for its error. */
static inline PyObject *
truediv(PyObject *a, PyObject *b)
{
    double x, y;
    if (as_double(a, &x) && as_double(b, &y) && y != 0.0)
        return PyFloat_FromDouble(x / y);
    return PyNumber_TrueDivide(a, b);
}

/* ``obj.<f> += delta`` */
static int
iadd_field(PyObject *obj, Field *f, PyObject *delta)
{
    PyObject *cur, *res;
    cur = fget(obj, f);
    if (cur == NULL)
        return -1;
    if (PyFloat_CheckExact(cur) && PyFloat_CheckExact(delta))
        res = PyFloat_FromDouble(PyFloat_AS_DOUBLE(cur) + PyFloat_AS_DOUBLE(delta));
    else
        res = PyNumber_InPlaceAdd(cur, delta);
    Py_DECREF(cur);
    return fset_steal(obj, f, res);
}

/* ``t[i]`` (new reference). */
static inline PyObject *
item(PyObject *t, Py_ssize_t i)
{
    if (PyTuple_CheckExact(t) && i < PyTuple_GET_SIZE(t)) {
        PyObject *v = PyTuple_GET_ITEM(t, i);
        Py_INCREF(v);
        return v;
    }
    return PySequence_GetItem(t, i);
}

/* ``q.append(x)`` */
static int
q_append(PyObject *q, PyObject *x)
{
    PyObject *r;
    if (Py_IS_TYPE(q, deque_type)) {
        PyObject *args[2] = {q, x};
        r = PyObject_Vectorcall(deque_append, args, 2, NULL);
    }
    else {
        r = PyObject_CallMethodOneArg(q, s_append, x);
    }
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* ``q.popleft()`` */
static PyObject *
q_popleft(PyObject *q)
{
    if (Py_IS_TYPE(q, deque_type)) {
        PyObject *args[1] = {q};
        return PyObject_Vectorcall(deque_popleft, args, 1, NULL);
    }
    return PyObject_CallMethodNoArgs(q, s_popleft);
}

/* ``d.get(k)`` (new reference; None when missing). */
static PyObject *
dict_get(PyObject *d, PyObject *k, PyObject *dflt)
{
    if (PyDict_CheckExact(d)) {
        PyObject *v = PyDict_GetItemWithError(d, k);
        if (v == NULL) {
            if (PyErr_Occurred())
                return NULL;
            v = dflt;
        }
        Py_INCREF(v);
        return v;
    }
    return PyObject_CallMethodObjArgs(d, s_get, k, dflt, NULL);
}

/* The ``dst_host``/``dst_port`` field of a flow key (new reference). */
static inline PyObject *
flow_field(PyObject *flow, Py_ssize_t index, PyObject *name)
{
    if (FlowKey_type != NULL && Py_IS_TYPE(flow, FlowKey_type)
            && PyTuple_GET_SIZE(flow) > index) {
        PyObject *v = PyTuple_GET_ITEM(flow, index);
        Py_INCREF(v);
        return v;
    }
    return PyObject_GetAttr(flow, name);
}

/* ``callable(arg)``, discarding the result. */
static inline int
call1(PyObject *fn, PyObject *arg)
{
    PyObject *r = PyObject_CallOneArg(fn, arg);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* ``obj.name(arg...)``, discarding the result. */
static int
callmeth(PyObject *obj, PyObject *name, PyObject *a, PyObject *b, PyObject *c)
{
    PyObject *args[4] = {obj, a, b, c};
    size_t n = a == NULL ? 1 : b == NULL ? 2 : c == NULL ? 3 : 4;
    PyObject *r = PyObject_VectorcallMethod(
        name, args, n | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* ``obj.name`` for a method this module implements: bound directly when
 * ``obj`` is exactly the bound class. */
static PyObject *
bound(PyObject *obj, PyTypeObject *cls, PyObject *fn, PyObject *name)
{
    if (cls != NULL && fn != NULL && Py_IS_TYPE(obj, cls))
        return PyMethod_New(fn, obj);
    return PyObject_GetAttr(obj, name);
}

static int
check_self(PyObject *self, PyTypeObject *cls, const char *method)
{
    if (cls == NULL || !PyObject_TypeCheck(self, cls)) {
        PyErr_Format(PyExc_TypeError,
                     "descriptor '%s' for '%s' objects doesn't apply to a "
                     "'%.100s' object", method,
                     cls == NULL ? "?" : cls->tp_name, Py_TYPE(self)->tp_name);
        return -1;
    }
    return 0;
}

/* sim.schedule_fire inlined: ``seq = events._seq; events._seq = seq + 1``
 * happens first, then the caller computes the entry's time. */
static PyObject *
take_seq(PyObject *events)
{
    PyObject *seq, *next;
    seq = fget(events, &EQ_seq);
    if (seq == NULL)
        return NULL;
    next = PyNumber_Add(seq, one);
    if (fset_steal(events, &EQ_seq, next) < 0) {
        Py_DECREF(seq);
        return NULL;
    }
    return seq;
}

/* ``heappush(events._heap, (time, 0, seq, None, fn, args));
 * events._live += 1`` */
static int
push_entry(PyObject *events, PyObject *time, PyObject *seq, PyObject *fn,
           PyObject *args)
{
    PyObject *heap, *entry, *r;
    heap = fget(events, &EQ_heap);
    if (heap == NULL)
        return -1;
    entry = PyTuple_Pack(6, time, zero, seq, Py_None, fn, args);
    if (entry == NULL) {
        Py_DECREF(heap);
        return -1;
    }
    {
        PyObject *argv[2] = {heap, entry};
        r = PyObject_Vectorcall(heappush, argv, 2, NULL);
    }
    Py_DECREF(heap);
    Py_DECREF(entry);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return iadd_field(events, &EQ_live, one);
}

/* ------------------------------------------------------------------ */
/* PFifo                                                               */
/* ------------------------------------------------------------------ */

/* ``PFifo.enqueue``: 1 accepted, 0 dropped, -1 error. */
static int
pfifo_enqueue(PyObject *q, PyObject *seg)
{
    PyObject *queue, *n = NULL, *limit = NULL, *size = NULL;
    Py_ssize_t len;
    int full, ret = -1;

    queue = fget(q, &Q_queue);
    if (queue == NULL)
        return -1;
    len = PyObject_Size(queue);
    if (len < 0)
        goto done;
    n = PyLong_FromSsize_t(len);
    limit = n == NULL ? NULL : fget(q, &Q_limit);
    if (limit == NULL)
        goto done;
    full = compare(n, limit, Py_GE);
    if (full < 0)
        goto done;
    if (full) {
        ret = callmeth(q, s_note_drop, NULL, NULL, NULL) < 0 ? -1 : 0;
        goto done;
    }
    if (q_append(queue, seg) < 0)
        goto done;
    size = fget(seg, &SEG_size);
    if (size == NULL || iadd_field(q, &Q_bytes, size) < 0)
        goto done;
    ret = 1;
done:
    Py_DECREF(queue);
    Py_XDECREF(n);
    Py_XDECREF(limit);
    Py_XDECREF(size);
    return ret;
}

/* ``PFifo.dequeue`` (new reference; None when empty). */
static PyObject *
pfifo_dequeue(PyObject *q)
{
    PyObject *queue, *seg, *size, *cur, *res;
    int nonempty;

    queue = fget(q, &Q_queue);
    if (queue == NULL)
        return NULL;
    nonempty = truth(queue);
    if (nonempty <= 0) {
        Py_DECREF(queue);
        if (nonempty < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    seg = q_popleft(queue);
    Py_DECREF(queue);
    if (seg == NULL)
        return NULL;
    size = fget(seg, &SEG_size);
    cur = size == NULL ? NULL : fget(q, &Q_bytes);
    if (cur == NULL) {
        Py_XDECREF(size);
        Py_DECREF(seg);
        return NULL;
    }
    res = PyNumber_InPlaceSubtract(cur, size);
    Py_DECREF(cur);
    Py_DECREF(size);
    if (fset_steal(q, &Q_bytes, res) < 0) {
        Py_DECREF(seg);
        return NULL;
    }
    return seg;
}

/* ``self.qdisc.dequeue(now)`` with the PFifo fast path; ``*fifo`` says
 * whether it was taken. */
static PyObject *
qdisc_dequeue(PyObject *qdisc, PyObject *now, int *fifo)
{
    *fifo = PFifo_type != NULL && Py_IS_TYPE(qdisc, PFifo_type);
    if (*fifo)
        return pfifo_dequeue(qdisc);
    return PyObject_CallMethodOneArg(qdisc, s_dequeue, now);
}

/* ------------------------------------------------------------------ */
/* NIC                                                                 */
/* ------------------------------------------------------------------ */

static int nic_kick_impl(PyObject *self);
static int port_admit_impl(PyObject *self, PyObject *seg, PyObject *arrival,
                           PyObject *elided_ingress);
static int transport_serialized_impl(PyObject *self, PyObject *seg);
static int transport_arrival_impl(PyObject *self, PyObject *seg);

/* The dequeue came back empty-handed: ``if len(self.qdisc) > 0:
 * self._arm_retry()``.  An empty PFifo dequeue means an empty queue, so
 * the exact PFifo type skips the length check. */
static int
nic_idle(PyObject *self, PyObject *qdisc, int fifo)
{
    Py_ssize_t len;
    if (fifo)
        return 0;
    len = PyObject_Size(qdisc);
    if (len < 0)
        return -1;
    if (len > 0)
        return callmeth(self, s_arm_retry, NULL, NULL, NULL);
    return 0;
}

/* Start serializing ``seg`` (the tail shared by ``_kick`` and
 * ``_tx_done``): cancel the retry timer, stamp the busy period and push
 * the completion ``(now + seg.size / self.rate, 0, seq, None,
 * self._tx_done, (seg,))``.  ``set_busy`` also sets ``_tx_busy``. */
static int
nic_start(PyObject *self, PyObject *sim, PyObject *now, PyObject *seg,
          int set_busy)
{
    PyObject *retry, *events = NULL, *seq = NULL, *size = NULL, *rate = NULL,
        *dt = NULL, *time = NULL, *fn = NULL, *args = NULL;
    int is_none, ret = -1;

    retry = fget(self, &NIC_retry_event);
    if (retry == NULL)
        return -1;
    is_none = retry == Py_None;
    Py_DECREF(retry);
    if (!is_none) {
        retry = fget(self, &NIC_retry_event);
        if (retry == NULL)
            return -1;
        if (callmeth(sim, s_cancel, retry, NULL, NULL) < 0) {
            Py_DECREF(retry);
            return -1;
        }
        Py_DECREF(retry);
        if (fset(self, &NIC_retry_event, Py_None) < 0)
            return -1;
    }
    if (set_busy && fset(self, &NIC_tx_busy, Py_True) < 0)
        return -1;
    if (fset(self, &NIC_busy_since, now) < 0)
        return -1;
    events = fget(sim, &SIM_events);
    if (events == NULL)
        goto done;
    seq = take_seq(events);
    if (seq == NULL)
        goto done;
    size = fget(seg, &SEG_size);
    rate = size == NULL ? NULL : fget(self, &NIC_rate);
    dt = rate == NULL ? NULL : truediv(size, rate);
    time = dt == NULL ? NULL : add(now, dt);
    fn = time == NULL ? NULL : bound(self, NIC_type, fn_tx_done, s_tx_done);
    args = fn == NULL ? NULL : PyTuple_Pack(1, seg);
    if (args == NULL)
        goto done;
    ret = push_entry(events, time, seq, fn, args);
done:
    Py_XDECREF(events);
    Py_XDECREF(seq);
    Py_XDECREF(size);
    Py_XDECREF(rate);
    Py_XDECREF(dt);
    Py_XDECREF(time);
    Py_XDECREF(fn);
    Py_XDECREF(args);
    return ret;
}

static int
nic_send_impl(PyObject *self, PyObject *seg)
{
    PyObject *qdisc, *busy;
    int ok, is_busy;

    if (check_self(self, NIC_type, "send") < 0)
        return -1;
    qdisc = fget(self, &NIC_qdisc);
    if (qdisc == NULL)
        return -1;
    if (PFifo_type != NULL && Py_IS_TYPE(qdisc, PFifo_type)) {
        ok = pfifo_enqueue(qdisc, seg);
    }
    else {
        PyObject *sim, *now = NULL, *r = NULL;
        sim = fget(self, &NIC_sim);
        if (sim != NULL)
            now = fget(sim, &SIM_now);
        if (now != NULL) {
            PyObject *args[3] = {qdisc, seg, now};
            r = PyObject_VectorcallMethod(
                s_enqueue, args, 3 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
        }
        ok = r == NULL ? -1 : truth(r);
        Py_XDECREF(r);
        Py_XDECREF(now);
        Py_XDECREF(sim);
    }
    Py_DECREF(qdisc);
    if (ok < 0)
        return -1;
    if (!ok)
        return callmeth(self, s_egress_drop, seg, NULL, NULL);
    /* While serializing, the in-flight segment's completion handler
     * starts the next dequeue itself — the kick would be a no-op. */
    busy = fget(self, &NIC_tx_busy);
    if (busy == NULL)
        return -1;
    is_busy = truth(busy);
    Py_DECREF(busy);
    if (is_busy < 0)
        return -1;
    if (is_busy)
        return 0;
    if (Py_IS_TYPE(self, NIC_type))
        return nic_kick_impl(self);
    return callmeth(self, s_kick, NULL, NULL, NULL);
}

static int
nic_kick_impl(PyObject *self)
{
    PyObject *busy, *sim = NULL, *now = NULL, *qdisc = NULL, *seg = NULL;
    int is_busy, fifo, ret = -1;

    if (check_self(self, NIC_type, "_kick") < 0)
        return -1;
    busy = fget(self, &NIC_tx_busy);
    if (busy == NULL)
        return -1;
    is_busy = truth(busy);
    Py_DECREF(busy);
    if (is_busy)
        return is_busy < 0 ? -1 : 0;
    sim = fget(self, &NIC_sim);
    now = sim == NULL ? NULL : fget(sim, &SIM_now);
    qdisc = now == NULL ? NULL : fget(self, &NIC_qdisc);
    seg = qdisc == NULL ? NULL : qdisc_dequeue(qdisc, now, &fifo);
    if (seg == NULL)
        goto done;
    if (seg == Py_None)
        ret = nic_idle(self, qdisc, fifo);
    else
        ret = nic_start(self, sim, now, seg, 1);
done:
    Py_XDECREF(sim);
    Py_XDECREF(now);
    Py_XDECREF(qdisc);
    Py_XDECREF(seg);
    return ret;
}

/* ``port.admit(seg, arrival)`` */
static int
admit_call(PyObject *port, PyObject *seg, PyObject *arrival)
{
    if (Port_type != NULL && Py_IS_TYPE(port, Port_type))
        return port_admit_impl(port, seg, arrival, Py_True);
    return callmeth(port, s_admit, seg, arrival, NULL);
}

/* The fast path: route into the egress port now, stamped with the
 * arrival time the elided ingress event would have carried. */
static int
nic_route(PyObject *self, PyObject *ports, PyObject *seg, PyObject *now)
{
    PyObject *flow, *dst, *port = NULL, *sw = NULL, *lat = NULL,
        *arrival = NULL;
    int ret = -1;

    flow = fget(seg, &SEG_flow);
    if (flow == NULL)
        return -1;
    dst = flow_field(flow, 2, s_dst_host);
    Py_DECREF(flow);
    if (dst == NULL)
        return -1;
    if (PyDict_CheckExact(ports)) {
        port = PyDict_GetItemWithError(ports, dst);
        Py_XINCREF(port);
    }
    else {
        port = PyObject_GetItem(ports, dst);
        if (port == NULL && PyErr_ExceptionMatches(PyExc_KeyError))
            PyErr_Clear();
    }
    if (port == NULL) {
        if (!PyErr_Occurred())
            PyErr_Format(NetworkError, "no fabric port for destination %R", dst);
        goto done;
    }
    sw = fget(self, &NIC_fab_switch);
    if (sw == NULL || iadd_field(sw, &SW_forwarded, one) < 0)
        goto done;
    lat = fget(self, &NIC_link_latency);
    arrival = lat == NULL ? NULL : add(now, lat);
    if (arrival == NULL)
        goto done;
    ret = admit_call(port, seg, arrival);
done:
    Py_DECREF(dst);
    Py_XDECREF(port);
    Py_XDECREF(sw);
    Py_XDECREF(lat);
    Py_XDECREF(arrival);
    return ret;
}

static int
nic_tx_done_impl(PyObject *self, PyObject *seg)
{
    PyObject *sim, *now = NULL, *since = NULL, *dt = NULL, *size = NULL,
        *ports = NULL, *on_sent = NULL, *qdisc = NULL, *nxt = NULL;
    int fifo, ret = -1;

    if (check_self(self, NIC_type, "_tx_done") < 0)
        return -1;
    sim = fget(self, &NIC_sim);
    now = sim == NULL ? NULL : fget(sim, &SIM_now);
    since = now == NULL ? NULL : fget(self, &NIC_busy_since);
    dt = since == NULL ? NULL : sub(now, since);
    if (dt == NULL || iadd_field(self, &NIC_busy_time, dt) < 0)
        goto done;
    size = fget(seg, &SEG_size);
    if (size == NULL || iadd_field(self, &NIC_bytes_tx, size) < 0
            || iadd_field(self, &NIC_segments_tx, one) < 0)
        goto done;
    ports = fget(self, &NIC_fab_ports);
    if (ports == NULL)
        goto done;
    if (ports != Py_None) {
        if (nic_route(self, ports, seg, now) < 0)
            goto done;
    }
    else if (callmeth(self, s_link_deliver, seg, NULL, NULL) < 0) {
        goto done;
    }
    on_sent = fget(self, &NIC_on_segment_sent);
    if (on_sent == NULL)
        goto done;
    if (on_sent != Py_None) {
        /* Window refill: sends land in the qdisc but skip the kick
         * (``_tx_busy`` is still True) — the dequeue below starts the
         * next serialization exactly where the kick would have. */
        int r;
        if (PyMethod_Check(on_sent)
                && PyMethod_GET_FUNCTION(on_sent) == fn_serialized)
            r = transport_serialized_impl(PyMethod_GET_SELF(on_sent), seg);
        else
            r = call1(on_sent, seg);
        if (r < 0)
            goto done;
    }
    qdisc = fget(self, &NIC_qdisc);
    nxt = qdisc == NULL ? NULL : qdisc_dequeue(qdisc, now, &fifo);
    if (nxt == NULL)
        goto done;
    if (nxt == Py_None) {
        if (fset(self, &NIC_tx_busy, Py_False) < 0)
            goto done;
        ret = nic_idle(self, qdisc, fifo);
    }
    else {
        ret = nic_start(self, sim, now, nxt, 0);
    }
done:
    Py_XDECREF(sim);
    Py_XDECREF(now);
    Py_XDECREF(since);
    Py_XDECREF(dt);
    Py_XDECREF(size);
    Py_XDECREF(ports);
    Py_XDECREF(on_sent);
    Py_XDECREF(qdisc);
    Py_XDECREF(nxt);
    return ret;
}

/* ------------------------------------------------------------------ */
/* VirtualOutputPort                                                   */
/* ------------------------------------------------------------------ */

/* Purge wait entries whose service has started by ``arrival`` — the
 * analytic analogue of the pops the serializer's events performed.
 * Returns the queued byte count left (new reference). */
static PyObject *
port_purge(PyObject *wait, PyObject *queued_in, PyObject *arrival,
           PyObject *lat)
{
    PyObject *queued = queued_in;
    Py_INCREF(queued);
    for (;;) {
        PyObject *entry, *start, *popped, *n, *next;
        int nonempty, pop;

        nonempty = truth(wait);
        if (nonempty <= 0)
            return nonempty < 0 ? (Py_DECREF(queued), NULL) : queued;
        entry = PySequence_GetItem(wait, 0);
        if (entry == NULL)
            goto fail;
        start = item(entry, 0);
        if (start == NULL) {
            Py_DECREF(entry);
            goto fail;
        }
        pop = compare(start, arrival, Py_LT);
        if (pop == 0) {
            pop = compare(start, arrival, Py_EQ);
            if (pop > 0) {
                PyObject *idle = item(entry, 2);
                pop = idle == NULL ? -1 : truth(idle);
                Py_XDECREF(idle);
                if (pop == 0) {
                    PyObject *prev = item(entry, 3);
                    PyObject *bound_ = prev == NULL ? NULL : sub(arrival, lat);
                    pop = bound_ == NULL ? -1 : compare(prev, bound_, Py_LE);
                    Py_XDECREF(prev);
                    Py_XDECREF(bound_);
                }
            }
        }
        Py_DECREF(start);
        if (pop <= 0) {
            Py_DECREF(entry);
            if (pop < 0)
                goto fail;
            return queued;
        }
        popped = q_popleft(wait);
        if (popped == NULL) {
            Py_DECREF(entry);
            goto fail;
        }
        Py_DECREF(popped);
        n = item(entry, 1);
        Py_DECREF(entry);
        if (n == NULL)
            goto fail;
        next = PyNumber_InPlaceSubtract(queued, n);
        Py_DECREF(n);
        if (next == NULL)
            goto fail;
        Py_SETREF(queued, next);
    }
fail:
    Py_DECREF(queued);
    return NULL;
}

/* A tail drop at an elided ingress.  Counted now (cumulative counters,
 * read at settle points and at run end); the sender's notification
 * fires at its exact packet time, where packet granularity ran the
 * ingress event: ``sim.schedule_at_fire(arrival, on_drop, (seg,))``. */
static int
port_drop(PyObject *self, PyObject *sim, PyObject *seg, PyObject *size,
          PyObject *arrival)
{
    PyObject *on_drop, *now = NULL, *args = NULL, *events = NULL,
        *seq = NULL;
    int r, ret = -1;

    if (iadd_field(self, &P_drops, one) < 0
            || iadd_field(self, &P_dropped_bytes, size) < 0)
        return -1;
    on_drop = fget(self, &P_on_drop);
    if (on_drop == NULL)
        return -1;
    if (on_drop == Py_None) {
        /* Packet mode would still have run the ingress event. */
        Py_DECREF(on_drop);
        if (iadd_field(sim, &SIM_steps, one) < 0)
            return -1;
        return iadd_field(sim, &SIM_elided, one);
    }
    now = fget(sim, &SIM_now);
    args = now == NULL ? NULL : PyTuple_Pack(1, seg);
    if (args == NULL)
        goto done;
    r = compare(arrival, now, Py_GE);
    if (r > 0)
        r = compare(arrival, arrival, Py_EQ);
    if (r < 0)
        goto done;
    if (r == 0) {
        /* past or NaN: the kernel's check raises */
        PyObject *schedule = PyObject_GetAttrString(sim, "schedule_at_fire");
        PyObject *res = schedule == NULL ? NULL
            : PyObject_CallFunctionObjArgs(schedule, arrival, on_drop, args,
                                           NULL);
        Py_XDECREF(schedule);
        ret = res == NULL ? -1 : 0;
        Py_XDECREF(res);
        goto done;
    }
    events = fget(sim, &SIM_events);
    seq = events == NULL ? NULL : take_seq(events);
    if (seq != NULL)
        ret = push_entry(events, arrival, seq, on_drop, args);
done:
    Py_DECREF(on_drop);
    Py_XDECREF(now);
    Py_XDECREF(args);
    Py_XDECREF(events);
    Py_XDECREF(seq);
    return ret;
}

static int
port_admit_impl(PyObject *self, PyObject *seg, PyObject *arrival,
                PyObject *elided_ingress)
{
    PyObject *sim, *size = NULL, *lat = NULL, *wait = NULL, *queued0 = NULL,
        *queued = NULL, *buf = NULL, *total = NULL, *free_at = NULL,
        *idle = NULL, *start, *last = NULL, *entry = NULL, *len_obj = NULL,
        *maxb = NULL, *rate = NULL, *dt = NULL, *done_ = NULL,
        *delivery = NULL, *service = NULL, *pending = NULL, *acc = NULL,
        *msg = NULL, *mid = NULL, *prev = NULL, *got = NULL, *msize = NULL,
        *credit = NULL;
    int elided, r, ret = -1;
    long credit_n;
    Py_ssize_t len;

    if (check_self(self, Port_type, "admit") < 0)
        return -1;
    elided = truth(elided_ingress);
    if (elided < 0)
        return -1;
    sim = fget(self, &P_sim);
    size = sim == NULL ? NULL : fget(seg, &SEG_size);
    lat = size == NULL ? NULL : fget(self, &P_lat);
    wait = lat == NULL ? NULL : fget(self, &P_wait);
    queued0 = wait == NULL ? NULL : fget(self, &P_queued_bytes);
    queued = queued0 == NULL ? NULL : port_purge(wait, queued0, arrival, lat);
    buf = queued == NULL ? NULL : fget(self, &P_buffer_bytes);
    if (buf == NULL)
        goto done;
    if (buf != Py_None) {
        total = add(queued, size);
        r = total == NULL ? -1 : compare(total, buf, Py_GT);
        if (r < 0)
            goto done;
        if (r) {
            if (fset(self, &P_queued_bytes, queued) < 0)
                goto done;
            if (!elided)
                ret = callmeth(self, s_record_drop, seg, NULL, NULL);
            else
                ret = port_drop(self, sim, seg, size, arrival);
            goto done;
        }
    }
    free_at = fget(self, &P_free_at);
    if (free_at == NULL)
        goto done;
    r = compare(free_at, arrival, Py_LT);
    if (r < 0)
        goto done;
    idle = r ? Py_True : Py_False;
    Py_INCREF(idle);
    start = r ? arrival : free_at;
    last = fget(self, &P_last_start);
    entry = last == NULL ? NULL : PyTuple_Pack(4, start, size, idle, last);
    if (entry == NULL || q_append(wait, entry) < 0)
        goto done;
    Py_SETREF(queued, PyNumber_InPlaceAdd(queued, size));
    if (queued == NULL || fset(self, &P_queued_bytes, queued) < 0)
        goto done;
    len = PyObject_Size(wait);
    len_obj = len < 0 ? NULL : PyLong_FromSsize_t(len);
    maxb = len_obj == NULL ? NULL : fget(self, &P_max_backlog);
    r = maxb == NULL ? -1 : compare(len_obj, maxb, Py_GT);
    if (r < 0 || (r && fset(self, &P_max_backlog, len_obj) < 0))
        goto done;
    if (fset(self, &P_last_start, start) < 0)
        goto done;
    /* Same float expressions as the event-driven serializer. */
    rate = fget(self, &P_rate);
    dt = rate == NULL ? NULL : truediv(size, rate);
    done_ = dt == NULL ? NULL : add(start, dt);
    if (done_ == NULL || fset(self, &P_free_at, done_) < 0)
        goto done;
    delivery = add(done_, lat);
    pending = delivery == NULL ? NULL : fget(self, &P_pending);
    service = pending == NULL ? NULL : sub(done_, start);
    Py_CLEAR(entry);
    entry = service == NULL ? NULL : PyTuple_Pack(4, delivery, seg, size, service);
    if (entry == NULL || q_append(pending, entry) < 0)
        goto done;
    acc = fget(self, &P_acc);
    msg = acc == NULL ? NULL : fget(seg, &SEG_message);
    mid = msg == NULL ? NULL : fget(msg, &MSG_msg_id);
    prev = mid == NULL ? NULL : dict_get(acc, mid, zero);
    got = prev == NULL ? NULL : PyNumber_Add(prev, size);
    /* Packet granularity would execute ingress (if elided) + one
     * serialization-done + one delivery event for this segment; we
     * execute at most the completion event.  Credit the difference. */
    credit_n = elided ? 3 : 2;
    msize = got == NULL ? NULL : fget(msg, &MSG_size);
    r = msize == NULL ? -1 : compare(got, msize, Py_GE);
    if (r < 0)
        goto done;
    if (r) {
        /* pop, not del: a duplicated segment (spurious retransmit) can
         * cross msg.size a second time with no accumulator entry. */
        PyObject *events, *seq, *fn;
        if (PyDict_CheckExact(acc)) {
            r = PyDict_Contains(acc, mid);
            if (r < 0 || (r && PyDict_DelItem(acc, mid) < 0))
                goto done;
        }
        else if (callmeth(acc, s_pop, mid, Py_None, NULL) < 0) {
            goto done;
        }
        events = fget(sim, &SIM_events);
        if (events == NULL)
            goto done;
        seq = take_seq(events);
        fn = seq == NULL ? NULL
            : bound(self, Port_type, fn_settle, s_settle);
        r = fn == NULL ? -1 : push_entry(events, delivery, seq, fn, empty_tuple);
        Py_DECREF(events);
        Py_XDECREF(seq);
        Py_XDECREF(fn);
        if (r < 0)
            goto done;
        credit_n -= 1;
    }
    else if (PyObject_SetItem(acc, mid, got) < 0) {
        goto done;
    }
    credit = PyLong_FromLong(credit_n);
    if (credit == NULL || iadd_field(sim, &SIM_steps, credit) < 0
            || iadd_field(sim, &SIM_elided, credit) < 0)
        goto done;
    ret = 0;
done:
    Py_XDECREF(sim);
    Py_XDECREF(size);
    Py_XDECREF(lat);
    Py_XDECREF(wait);
    Py_XDECREF(queued0);
    Py_XDECREF(queued);
    Py_XDECREF(buf);
    Py_XDECREF(total);
    Py_XDECREF(free_at);
    Py_XDECREF(idle);
    Py_XDECREF(last);
    Py_XDECREF(entry);
    Py_XDECREF(len_obj);
    Py_XDECREF(maxb);
    Py_XDECREF(rate);
    Py_XDECREF(dt);
    Py_XDECREF(done_);
    Py_XDECREF(delivery);
    Py_XDECREF(service);
    Py_XDECREF(pending);
    Py_XDECREF(acc);
    Py_XDECREF(msg);
    Py_XDECREF(mid);
    Py_XDECREF(prev);
    Py_XDECREF(got);
    Py_XDECREF(msize);
    Py_XDECREF(credit);
    return ret;
}

/* ``pending and pending[0][0] <= now``: 1, 0 or -1. */
static int
port_matured(PyObject *pending, PyObject *now)
{
    PyObject *head, *t;
    int r = truth(pending);
    if (r <= 0)
        return r;
    head = PySequence_GetItem(pending, 0);
    if (head == NULL)
        return -1;
    t = item(head, 0);
    Py_DECREF(head);
    if (t == NULL)
        return -1;
    r = compare(t, now, Py_LE);
    Py_DECREF(t);
    return r;
}

/* Pop one matured entry and book it on the port:
 * ``self.bytes_tx += entry[2]; self.busy_time += entry[3]``.
 * Returns the entry (new reference). */
static PyObject *
port_take(PyObject *self, PyObject *pending)
{
    PyObject *entry, *size, *service;
    int r;
    entry = q_popleft(pending);
    if (entry == NULL)
        return NULL;
    size = item(entry, 2);
    r = size == NULL ? -1 : iadd_field(self, &P_bytes_tx, size);
    Py_XDECREF(size);
    if (r == 0) {
        service = item(entry, 3);
        r = service == NULL ? -1 : iadd_field(self, &P_busy_time, service);
        Py_XDECREF(service);
    }
    if (r < 0) {
        Py_DECREF(entry);
        return NULL;
    }
    return entry;
}

static int
port_settle_impl(PyObject *self)
{
    PyObject *sim, *now = NULL, *pending = NULL, *nic = NULL, *cb = NULL,
        *entry = NULL;
    int r, ret = -1;

    if (check_self(self, Port_type, "settle") < 0)
        return -1;
    sim = fget(self, &P_sim);
    now = sim == NULL ? NULL : fget(sim, &SIM_now);
    pending = now == NULL ? NULL : fget(self, &P_pending);
    if (pending == NULL)
        goto done;
    r = port_matured(pending, now);
    if (r <= 0) {
        ret = r;
        goto done;
    }
    nic = fget(self, &P_rx_nic);
    if (nic == NULL)
        goto done;
    if (nic != Py_None) {
        /* NIC.receive inlined: counter bumps + the transport callback. */
        int direct;
        cb = fget(nic, &NIC_on_receive);
        if (cb == NULL)
            goto done;
        direct = PyMethod_Check(cb) && PyMethod_GET_FUNCTION(cb) == fn_arrival;
        while ((r = port_matured(pending, now)) > 0) {
            PyObject *size, *seg;
            entry = port_take(self, pending);
            if (entry == NULL)
                goto done;
            size = item(entry, 2);
            r = size == NULL ? -1 : iadd_field(nic, &NIC_bytes_rx, size);
            Py_XDECREF(size);
            if (r < 0 || iadd_field(nic, &NIC_segments_rx, one) < 0)
                goto done;
            if (cb != Py_None) {
                seg = item(entry, 1);
                if (seg == NULL)
                    goto done;
                if (direct)
                    r = transport_arrival_impl(PyMethod_GET_SELF(cb), seg);
                else
                    r = call1(cb, seg);
                Py_DECREF(seg);
                if (r < 0)
                    goto done;
            }
            Py_CLEAR(entry);
        }
        ret = r;
        goto done;
    }
    cb = fget(self, &P_deliver);
    if (cb == NULL)
        goto done;
    while ((r = port_matured(pending, now)) > 0) {
        PyObject *seg;
        entry = port_take(self, pending);
        seg = entry == NULL ? NULL : item(entry, 1);
        if (seg == NULL)
            goto done;
        r = call1(cb, seg);
        Py_DECREF(seg);
        if (r < 0)
            goto done;
        Py_CLEAR(entry);
    }
    ret = r;
done:
    Py_XDECREF(sim);
    Py_XDECREF(now);
    Py_XDECREF(pending);
    Py_XDECREF(nic);
    Py_XDECREF(cb);
    Py_XDECREF(entry);
    return ret;
}

static int
port_enqueue_impl(PyObject *self, PyObject *seg)
{
    PyObject *sim, *now;
    int r;
    if (check_self(self, Port_type, "enqueue") < 0)
        return -1;
    sim = fget(self, &P_sim);
    if (sim == NULL)
        return -1;
    now = fget(sim, &SIM_now);
    Py_DECREF(sim);
    if (now == NULL)
        return -1;
    if (Py_IS_TYPE(self, Port_type)) {
        r = port_admit_impl(self, seg, now, Py_False);
    }
    else {
        PyObject *kw = PyTuple_Pack(1, s_elided_ingress);
        PyObject *args[4] = {self, seg, now, Py_False};
        PyObject *res = kw == NULL ? NULL : PyObject_VectorcallMethod(
            s_admit, args, 3 | PY_VECTORCALL_ARGUMENTS_OFFSET, kw);
        Py_XDECREF(kw);
        r = res == NULL ? -1 : 0;
        Py_XDECREF(res);
    }
    Py_DECREF(now);
    return r;
}

/* ------------------------------------------------------------------ */
/* Transport                                                           */
/* ------------------------------------------------------------------ */

/* ``nic.send(seg)`` */
static int
send_call(PyObject *nic, PyObject *send, PyObject *seg)
{
    if (send == NULL)
        return nic_send_impl(nic, seg);
    return call1(send, seg);
}

/* Window growth per served segment (``_SendState.on_progress``). */
static int
window_progress(PyObject *state)
{
    PyObject *w, *bw = NULL, *th = NULL, *nw = NULL;
    int r, ret = -1;
    w = fget(state, &SS_window);
    bw = w == NULL ? NULL : fget(state, &SS_base_window);
    if (bw == NULL)
        goto done;
    r = compare(w, bw, Py_LT);
    if (r <= 0) {
        ret = r;
        goto done;
    }
    th = fget(state, &SS_ssthresh);
    r = th == NULL ? -1 : compare(w, th, Py_LT);
    if (r < 0)
        goto done;
    if (r) {
        nw = add(w, float_one);
    }
    else {
        PyObject *inc = truediv(float_one, w);
        nw = inc == NULL ? NULL : add(w, inc);
        Py_XDECREF(inc);
    }
    r = nw == NULL ? -1 : compare(nw, bw, Py_LT);
    if (r < 0)
        goto done;
    ret = fset(state, &SS_window, r ? nw : bw);
done:
    Py_XDECREF(w);
    Py_XDECREF(bw);
    Py_XDECREF(th);
    Py_XDECREF(nw);
    return ret;
}

static int
transport_serialized_impl(PyObject *self, PyObject *seg)
{
    PyObject *flow, *states = NULL, *state = NULL, *n = NULL, *nic = NULL,
        *pending = NULL, *limit = NULL, *send = NULL;
    int r, ret = -1;

    if (check_self(self, Transport_type, "_on_segment_serialized") < 0)
        return -1;
    flow = fget(seg, &SEG_flow);
    states = flow == NULL ? NULL : fget(self, &T_send_states);
    if (states == NULL)
        goto done;
    if (PyDict_CheckExact(states)) {
        state = PyDict_GetItemWithError(states, flow);
        Py_XINCREF(state);
    }
    else {
        state = PyObject_GetItem(states, flow);
        if (state == NULL && PyErr_ExceptionMatches(PyExc_KeyError))
            PyErr_Clear();
    }
    if (state == NULL) {
        /* flow already drained (last segment) */
        ret = PyErr_Occurred() ? -1 : 0;
        goto done;
    }
    n = fget(state, &SS_in_flight);
    if (n == NULL)
        goto done;
    Py_SETREF(n, PyNumber_Subtract(n, one));
    if (n == NULL || fset(state, &SS_in_flight, n) < 0)
        goto done;
    if (window_progress(state) < 0)
        goto done;
    nic = fget(self, &T_nic);
    if (nic == NULL)
        goto done;
    {
        PyObject *tol = fget(nic, &NIC_loss_tolerant);
        r = tol == NULL ? -1 : truth(tol);
        Py_XDECREF(tol);
    }
    if (r < 0)
        goto done;
    if (r) {
        ret = callmeth(self, s_refill, flow, state, NULL);
        goto done;
    }
    pending = fget(state, &SS_pending);
    if (pending == NULL)
        goto done;
    r = truth(pending);
    if (r < 0)
        goto done;
    if (r) {
        PyObject *w = fget(state, &SS_window);
        limit = w == NULL ? NULL : PyNumber_Long(w);
        Py_XDECREF(w);
        if (limit == NULL)
            goto done;
        if (NIC_type == NULL || !Py_IS_TYPE(nic, NIC_type)) {
            send = PyObject_GetAttr(nic, s_send);
            if (send == NULL)
                goto done;
        }
        while ((r = compare(n, limit, Py_LT)) > 0) {
            PyObject *seg2 = q_popleft(pending);
            if (seg2 == NULL)
                goto done;
            Py_SETREF(n, PyNumber_Add(n, one));
            if (n == NULL || fset(state, &SS_in_flight, n) < 0
                    || send_call(nic, send, seg2) < 0) {
                Py_DECREF(seg2);
                goto done;
            }
            Py_DECREF(seg2);
            r = truth(pending);
            if (r <= 0)
                break;
        }
        if (r < 0)
            goto done;
    }
    r = compare(n, zero, Py_EQ);
    if (r > 0) {
        r = truth(pending);
        if (r == 0)
            r = PyObject_DelItem(states, flow) < 0 ? -1 : 0;
    }
    ret = r < 0 ? -1 : 0;
done:
    Py_XDECREF(flow);
    Py_XDECREF(states);
    Py_XDECREF(state);
    Py_XDECREF(n);
    Py_XDECREF(nic);
    Py_XDECREF(pending);
    Py_XDECREF(limit);
    Py_XDECREF(send);
    return ret;
}

/* One segment of several: reassemble.  1 when the message is complete,
 * 0 when bytes are still missing, -1 on error. */
static int
transport_reassemble(PyObject *self, PyObject *seg, PyObject *msg)
{
    PyObject *states, *mid = NULL, *state = NULL, *size = NULL,
        *received = NULL, *msize = NULL;
    int r, ret = -1;

    states = fget(self, &T_recv_states);
    mid = states == NULL ? NULL : fget(msg, &MSG_msg_id);
    state = mid == NULL ? NULL : dict_get(states, mid, Py_None);
    if (state == NULL)
        goto done;
    if (state == Py_None) {
        Py_SETREF(state, PyObject_CallOneArg((PyObject *)RecvState_type, msg));
        if (state == NULL || PyObject_SetItem(states, mid, state) < 0)
            goto done;
    }
    size = fget(seg, &SEG_size);
    if (size == NULL || iadd_field(state, &RS_received, size) < 0)
        goto done;
    received = fget(state, &RS_received);
    msize = received == NULL ? NULL : fget(msg, &MSG_size);
    r = msize == NULL ? -1 : compare(received, msize, Py_LT);
    if (r < 0)
        goto done;
    if (r) {
        ret = 0;
        goto done;
    }
    ret = PyObject_DelItem(states, mid) < 0 ? -1 : 1;
done:
    Py_XDECREF(states);
    Py_XDECREF(mid);
    Py_XDECREF(state);
    Py_XDECREF(size);
    Py_XDECREF(received);
    Py_XDECREF(msize);
    return ret;
}

static int
transport_unrouted(PyObject *self, PyObject *msg, PyObject *port)
{
    PyObject *tol, *nic = NULL, *host = NULL, *kind = NULL, *s_host = NULL,
        *s_port = NULL, *s_kind = NULL;
    int r;

    tol = fget(self, &T_tolerate_unrouted);
    if (tol == NULL)
        return -1;
    r = truth(tol);
    Py_DECREF(tol);
    if (r < 0)
        return -1;
    if (r)
        return iadd_field(self, &T_messages_unrouted, one);
    nic = fget(self, &T_nic);
    host = nic == NULL ? NULL : PyObject_GetAttr(nic, s_host_id);
    kind = host == NULL ? NULL : fget(msg, &MSG_kind);
    s_host = kind == NULL ? NULL : PyObject_Format(host, empty_str);
    s_port = s_host == NULL ? NULL : PyObject_Format(port, empty_str);
    s_kind = s_port == NULL ? NULL : PyObject_Format(kind, empty_str);
    if (s_kind != NULL)
        PyErr_Format(NetworkError, "no listener on %U:%U for %U message",
                     s_host, s_port, s_kind);
    Py_XDECREF(nic);
    Py_XDECREF(host);
    Py_XDECREF(kind);
    Py_XDECREF(s_host);
    Py_XDECREF(s_port);
    Py_XDECREF(s_kind);
    return -1;
}

static int
transport_arrival_impl(PyObject *self, PyObject *seg)
{
    PyObject *msg, *size = NULL, *msize = NULL, *sim = NULL, *now = NULL,
        *tap = NULL, *listeners = NULL, *flow = NULL, *port = NULL,
        *listener = NULL;
    int r, ret = -1;

    if (check_self(self, Transport_type, "_on_segment_arrival") < 0)
        return -1;
    msg = fget(seg, &SEG_message);
    size = msg == NULL ? NULL : fget(seg, &SEG_size);
    msize = size == NULL ? NULL : fget(msg, &MSG_size);
    r = msize == NULL ? -1 : compare(size, msize, Py_LT);
    if (r < 0)
        goto done;
    if (r) {
        /* One segment of several.  A one-segment message completes on
         * arrival and never gets a receive state. */
        r = transport_reassemble(self, seg, msg);
        if (r <= 0) {
            ret = r;
            goto done;
        }
    }
    sim = fget(self, &T_sim);
    now = sim == NULL ? NULL : fget(sim, &SIM_now);
    if (now == NULL || fset(msg, &MSG_delivered_at, now) < 0
            || iadd_field(self, &T_messages_delivered, one) < 0)
        goto done;
    tap = fget(self, &T_on_deliver);
    if (tap == NULL || (tap != Py_None && call1(tap, msg) < 0))
        goto done;
    listeners = fget(self, &T_listeners);
    flow = listeners == NULL ? NULL : fget(msg, &MSG_flow);
    port = flow == NULL ? NULL : flow_field(flow, 3, s_dst_port);
    listener = port == NULL ? NULL : dict_get(listeners, port, Py_None);
    if (listener == NULL)
        goto done;
    if (listener == Py_None)
        ret = transport_unrouted(self, msg, port);
    else
        ret = call1(listener, msg);
done:
    Py_XDECREF(msg);
    Py_XDECREF(size);
    Py_XDECREF(msize);
    Py_XDECREF(sim);
    Py_XDECREF(now);
    Py_XDECREF(tap);
    Py_XDECREF(listeners);
    Py_XDECREF(flow);
    Py_XDECREF(port);
    Py_XDECREF(listener);
    return ret;
}

/* ------------------------------------------------------------------ */
/* Python entry points (args[0] is ``self``)                           */
/* ------------------------------------------------------------------ */

static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError,
                     "%s() takes %zd positional arguments but %zd were given",
                     name, want, nargs);
        return -1;
    }
    return 0;
}

static PyObject *
done_none(int r)
{
    if (r < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
py_nic_send(PyObject *m, PyObject *const *args, Py_ssize_t nargs)
{
    (void)m;
    if (check_nargs("send", nargs, 2) < 0)
        return NULL;
    return done_none(nic_send_impl(args[0], args[1]));
}

static PyObject *
py_nic_kick(PyObject *m, PyObject *const *args, Py_ssize_t nargs)
{
    (void)m;
    if (check_nargs("_kick", nargs, 1) < 0)
        return NULL;
    return done_none(nic_kick_impl(args[0]));
}

static PyObject *
py_nic_tx_done(PyObject *m, PyObject *const *args, Py_ssize_t nargs)
{
    (void)m;
    if (check_nargs("_tx_done", nargs, 2) < 0)
        return NULL;
    return done_none(nic_tx_done_impl(args[0], args[1]));
}

/* ``admit(self, seg, arrival, elided_ingress=True)`` */
static PyObject *
py_port_admit(PyObject *m, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    static const char *const names[] = {"self", "seg", "arrival",
                                        "elided_ingress"};
    PyObject *vals[4] = {NULL, NULL, NULL, Py_True};
    Py_ssize_t i, nkw = kwnames == NULL ? 0 : PyTuple_GET_SIZE(kwnames);
    (void)m;
    if (nargs > 4) {
        PyErr_Format(PyExc_TypeError,
                     "admit() takes from 3 to 4 positional arguments but %zd "
                     "were given", nargs);
        return NULL;
    }
    for (i = 0; i < nargs; i++)
        vals[i] = args[i];
    for (i = 0; i < nkw; i++) {
        PyObject *key = PyTuple_GET_ITEM(kwnames, i);
        Py_ssize_t j;
        for (j = 1; j < 4; j++) {
            if (PyUnicode_CompareWithASCIIString(key, names[j]) == 0)
                break;
        }
        if (j == 4) {
            PyErr_Format(PyExc_TypeError,
                         "admit() got an unexpected keyword argument '%U'", key);
            return NULL;
        }
        if (j < nargs) {
            PyErr_Format(PyExc_TypeError,
                         "admit() got multiple values for argument '%s'",
                         names[j]);
            return NULL;
        }
        vals[j] = args[nargs + i];
    }
    for (i = 0; i < 3; i++) {
        if (vals[i] == NULL) {
            PyErr_Format(PyExc_TypeError,
                         "admit() missing required argument '%s'", names[i]);
            return NULL;
        }
    }
    return done_none(port_admit_impl(vals[0], vals[1], vals[2], vals[3]));
}

static PyObject *
py_port_enqueue(PyObject *m, PyObject *const *args, Py_ssize_t nargs)
{
    (void)m;
    if (check_nargs("enqueue", nargs, 2) < 0)
        return NULL;
    return done_none(port_enqueue_impl(args[0], args[1]));
}

static PyObject *
py_port_settle(PyObject *m, PyObject *const *args, Py_ssize_t nargs)
{
    (void)m;
    if (check_nargs("settle", nargs, 1) < 0)
        return NULL;
    return done_none(port_settle_impl(args[0]));
}

static PyObject *
py_transport_serialized(PyObject *m, PyObject *const *args, Py_ssize_t nargs)
{
    (void)m;
    if (check_nargs("_on_segment_serialized", nargs, 2) < 0)
        return NULL;
    return done_none(transport_serialized_impl(args[0], args[1]));
}

static PyObject *
py_transport_arrival(PyObject *m, PyObject *const *args, Py_ssize_t nargs)
{
    (void)m;
    if (check_nargs("_on_segment_arrival", nargs, 2) < 0)
        return NULL;
    return done_none(transport_arrival_impl(args[0], args[1]));
}

PyDoc_STRVAR(nic_send_doc,
"send(self, seg)\n--\n\n"
"Hand a segment to the egress qdisc.\n\n"
"A refused segment goes to ``_egress_drop``: reported to the transport\n"
"when the NIC is loss tolerant, a NetworkError otherwise.  An idle\n"
"serializer is kicked.");
PyDoc_STRVAR(nic_kick_doc,
"_kick(self)\n--\n\nStart serializing the next eligible segment, if idle.");
PyDoc_STRVAR(nic_tx_done_doc,
"_tx_done(self, seg)\n--\n\n"
"A segment finished serializing: count it, route it into its fabric\n"
"port (or over the link), refill the sender's window and start the\n"
"next serialization.");
PyDoc_STRVAR(port_admit_doc,
"admit(self, seg, arrival, elided_ingress=True)\n--\n\n"
"Admit a segment that will reach this port at ``arrival``.\n\n"
"``elided_ingress`` says whether the caller skipped the ingress event\n"
"packet granularity would have executed (the star topology admits\n"
"straight from the sender NIC, one link latency ahead).");
PyDoc_STRVAR(port_enqueue_doc,
"enqueue(self, seg)\n--\n\n"
"Event-time admission (no lookahead): used when the caller is itself\n"
"running inside the segment's real ingress event.");
PyDoc_STRVAR(port_settle_doc,
"settle(self)\n--\n\n"
"Deliver every pending segment whose delivery time has matured.\n\n"
"Runs as each message's completion event, and on demand from mid-run\n"
"counter readers (samplers, invariants, scrape).");
PyDoc_STRVAR(transport_serialized_doc,
"_on_segment_serialized(self, seg)\n--\n\n"
"The NIC serialized one of this host's segments: free its window slot,\n"
"grow the window and refill it from the flow's pending segments.");
PyDoc_STRVAR(transport_arrival_doc,
"_on_segment_arrival(self, seg)\n--\n\n"
"A segment arrived: reassemble its message and, once complete, stamp\n"
"``delivered_at`` and hand it to the port's listener.");

static PyMethodDef nic_defs[] = {
    {"send", (PyCFunction)(void (*)(void))py_nic_send, METH_FASTCALL,
     nic_send_doc},
    {"_kick", (PyCFunction)(void (*)(void))py_nic_kick, METH_FASTCALL,
     nic_kick_doc},
    {"_tx_done", (PyCFunction)(void (*)(void))py_nic_tx_done, METH_FASTCALL,
     nic_tx_done_doc},
    {NULL, NULL, 0, NULL},
};

static PyMethodDef port_defs[] = {
    {"admit", (PyCFunction)(void (*)(void))py_port_admit,
     METH_FASTCALL | METH_KEYWORDS, port_admit_doc},
    {"enqueue", (PyCFunction)(void (*)(void))py_port_enqueue, METH_FASTCALL,
     port_enqueue_doc},
    {"settle", (PyCFunction)(void (*)(void))py_port_settle, METH_FASTCALL,
     port_settle_doc},
    {NULL, NULL, 0, NULL},
};

static PyMethodDef transport_defs[] = {
    {"_on_segment_serialized",
     (PyCFunction)(void (*)(void))py_transport_serialized, METH_FASTCALL,
     transport_serialized_doc},
    {"_on_segment_arrival", (PyCFunction)(void (*)(void))py_transport_arrival,
     METH_FASTCALL, transport_arrival_doc},
    {NULL, NULL, 0, NULL},
};

/* ------------------------------------------------------------------ */
/* Binding                                                             */
/* ------------------------------------------------------------------ */

static PyObject *module_ref;

/* One class a bind call keeps, with the fields read from its
 * instances (NULL-terminated; ``fields`` may be NULL). */
typedef struct {
    PyTypeObject **slot;
    PyObject *cls;
    Field **fields;
} Binding;

#define MAX_FIELDS 64

/* Check every class and field of ``b`` (terminated by a NULL slot),
 * then keep them all: a failed bind changes nothing. */
static int
bind_classes(Binding *b)
{
    Py_ssize_t offsets[MAX_FIELDS];
    Binding *p;
    Field **f;
    int n = 0;

    for (p = b; p->slot != NULL; p++) {
        if (!PyType_Check(p->cls)) {
            PyErr_Format(PyExc_TypeError, "expected a class, not %.200s",
                         Py_TYPE(p->cls)->tp_name);
            return -1;
        }
        for (f = p->fields; f != NULL && *f != NULL; f++) {
            if (n == MAX_FIELDS) {
                PyErr_SetString(PyExc_SystemError, "too many fields");
                return -1;
            }
            if (slot_offset((PyTypeObject *)p->cls, *f, &offsets[n++]) < 0)
                return -1;
        }
    }
    n = 0;
    for (p = b; p->slot != NULL; p++) {
        Py_INCREF(p->cls);
        Py_XSETREF(*p->slot, (PyTypeObject *)p->cls);
        for (f = p->fields; f != NULL && *f != NULL; f++) {
            (*f)->type = *p->slot;
            (*f)->offset = offsets[n++];
        }
    }
    return 0;
}

/* The method functions of ``defs`` as a tuple of instance methods;
 * ``keep[i]`` (when not NULL) receives the i-th bare function. */
static PyObject *
make_methods(PyMethodDef *defs, PyObject ***keep)
{
    Py_ssize_t n = 0, i;
    PyObject *out;
    while (defs[n].ml_name != NULL)
        n++;
    out = PyTuple_New(n);
    if (out == NULL)
        return NULL;
    for (i = 0; i < n; i++) {
        PyObject *fn = PyCFunction_NewEx(&defs[i], module_ref, NULL);
        PyObject *im = fn == NULL ? NULL : PyInstanceMethod_New(fn);
        if (im == NULL) {
            Py_XDECREF(fn);
            Py_DECREF(out);
            return NULL;
        }
        if (keep != NULL && keep[i] != NULL)
            Py_XSETREF(*keep[i], Py_NewRef(fn));
        Py_DECREF(fn);
        PyTuple_SET_ITEM(out, i, im);
    }
    return out;
}

static PyObject *
bind_nic(PyObject *m, PyObject *args)
{
    PyObject *nic, *pfifo, *segment, *message, *flowkey, *queue, *sim,
        *error;
    Field *nic_fields[] = {
        &NIC_sim, &NIC_host_id, &NIC_rate, &NIC_qdisc, &NIC_on_segment_sent,
        &NIC_on_receive, &NIC_link_latency, &NIC_fab_switch, &NIC_fab_ports,
        &NIC_tx_busy, &NIC_retry_event, &NIC_bytes_tx, &NIC_bytes_rx,
        &NIC_segments_tx, &NIC_segments_rx, &NIC_busy_time, &NIC_busy_since,
        &NIC_loss_tolerant, NULL};
    Field *q_fields[] = {&Q_limit, &Q_queue, &Q_bytes, NULL};
    Field *seg_fields[] = {&SEG_message, &SEG_size, &SEG_flow, NULL};
    Field *msg_fields[] = {&MSG_size, &MSG_msg_id, &MSG_flow, &MSG_kind,
                           &MSG_delivered_at, NULL};
    Field *eq_fields[] = {&EQ_heap, &EQ_seq, &EQ_live, NULL};
    Field *sim_fields[] = {&SIM_now, &SIM_events, &SIM_steps, &SIM_elided,
                           NULL};
    PyObject **keep[] = {NULL, NULL, &fn_tx_done};
    (void)m;

    if (!PyArg_ParseTuple(args, "OOOOOOOO:bind_nic", &nic, &pfifo, &segment,
                          &message, &flowkey, &queue, &sim, &error))
        return NULL;
    if (!PyType_Check(flowkey)
            || !PyType_IsSubtype((PyTypeObject *)flowkey, &PyTuple_Type)) {
        PyErr_SetString(PyExc_TypeError, "FlowKey must be a tuple type");
        return NULL;
    }
    {
        Binding b[] = {
            {&NIC_type, nic, nic_fields}, {&PFifo_type, pfifo, q_fields},
            {&Segment_type, segment, seg_fields},
            {&Message_type, message, msg_fields},
            {&FlowKey_type, flowkey, NULL}, {&Queue_type, queue, eq_fields},
            {&Sim_type, sim, sim_fields}, {NULL, NULL, NULL}};
        if (bind_classes(b) < 0)
            return NULL;
    }
    Py_INCREF(error);
    Py_XSETREF(NetworkError, error);
    return make_methods(nic_defs, keep);
}

static PyObject *
bind_port(PyObject *m, PyObject *args)
{
    PyObject *port, *sw;
    Field *fields[] = {
        &P_sim, &P_deliver, &P_buffer_bytes, &P_queued_bytes, &P_bytes_tx,
        &P_busy_time, &P_max_backlog, &P_free_at, &P_last_start, &P_wait,
        &P_pending, &P_acc, &P_rate, &P_lat, &P_rx_nic, &P_on_drop,
        &P_drops, &P_dropped_bytes, NULL};
    Field *sw_fields[] = {&SW_forwarded, NULL};
    PyObject **keep[] = {NULL, NULL, &fn_settle};
    (void)m;

    if (!PyArg_ParseTuple(args, "OO:bind_port", &port, &sw))
        return NULL;
    {
        Binding b[] = {{&Port_type, port, fields},
                       {&Switch_type, sw, sw_fields}, {NULL, NULL, NULL}};
        if (bind_classes(b) < 0)
            return NULL;
    }
    return make_methods(port_defs, keep);
}

static PyObject *
bind_transport(PyObject *m, PyObject *args)
{
    PyObject *transport, *send_state, *recv_state;
    Field *fields[] = {
        &T_sim, &T_nic, &T_send_states, &T_recv_states, &T_listeners,
        &T_on_deliver, &T_tolerate_unrouted, &T_messages_delivered,
        &T_messages_unrouted, NULL};
    Field *ss_fields[] = {&SS_pending, &SS_in_flight, &SS_window,
                          &SS_base_window, &SS_ssthresh, NULL};
    Field *rs_fields[] = {&RS_received, NULL};
    PyObject **keep[] = {&fn_serialized, &fn_arrival};
    (void)m;

    if (!PyArg_ParseTuple(args, "OOO:bind_transport", &transport, &send_state,
                          &recv_state))
        return NULL;
    {
        Binding b[] = {{&Transport_type, transport, fields},
                       {&SendState_type, send_state, ss_fields},
                       {&RecvState_type, recv_state, rs_fields},
                       {NULL, NULL, NULL}};
        if (bind_classes(b) < 0)
            return NULL;
    }
    return make_methods(transport_defs, keep);
}

PyDoc_STRVAR(bind_nic_doc,
"bind_nic(NIC, PFifo, Segment, Message, FlowKey, EventQueue, Simulator,\n"
"         NetworkError)\n"
"--\n\n"
"Resolve the slots these classes' instances are read through and return\n"
"the instance methods ``(send, _kick, _tx_done)`` for ``NIC``.");
PyDoc_STRVAR(bind_port_doc,
"bind_port(VirtualOutputPort, Switch)\n--\n\n"
"Resolve the port's and the switch's slots and return the port's\n"
"``(admit, enqueue, settle)``.");
PyDoc_STRVAR(bind_transport_doc,
"bind_transport(Transport, _SendState, _RecvState)\n--\n\n"
"Resolve the transport's slots and return its\n"
"``(_on_segment_serialized, _on_segment_arrival)``.");

static PyMethodDef module_defs[] = {
    {"bind_nic", bind_nic, METH_VARARGS, bind_nic_doc},
    {"bind_port", bind_port, METH_VARARGS, bind_port_doc},
    {"bind_transport", bind_transport, METH_VARARGS, bind_transport_doc},
    {NULL, NULL, 0, NULL},
};

PyDoc_STRVAR(module_doc,
"The per-segment hops of repro.net, compiled.\n\n"
"``bind_nic``, ``bind_port`` and ``bind_transport`` return the methods\n"
"that implement ``NIC.send/_kick/_tx_done``,\n"
"``VirtualOutputPort.admit/enqueue/settle`` and\n"
"``Transport._on_segment_serialized/_on_segment_arrival``.  They work on\n"
"the classes' own slots and push the same heap entries as the Python\n"
"bodies they replace (kept in tests/net/segpath_reference.py), so every\n"
"event, counter and result hash is unchanged.  Built and loaded by\n"
"repro.net._native.");

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_segpath", module_doc, -1, module_defs,
    NULL, NULL, NULL, NULL,
};

static int
intern_all(void)
{
    struct { PyObject **slot; const char *text; } names[] = {
        {&s_append, "append"}, {&s_popleft, "popleft"}, {&s_get, "get"},
        {&s_pop, "pop"}, {&s_enqueue, "enqueue"}, {&s_dequeue, "dequeue"},
        {&s_cancel, "cancel"}, {&s_note_drop, "_note_drop"},
        {&s_arm_retry, "_arm_retry"}, {&s_egress_drop, "_egress_drop"},
        {&s_link_deliver, "_link_deliver"}, {&s_record_drop, "_record_drop"},
        {&s_refill, "_refill"}, {&s_send, "send"}, {&s_kick, "_kick"},
        {&s_tx_done, "_tx_done"}, {&s_admit, "admit"},
        {&s_settle, "settle"}, {&s_elided_ingress, "elided_ingress"},
        {&s_dst_host, "dst_host"}, {&s_dst_port, "dst_port"},
        {&s_host_id, "host_id"}, {&empty_str, ""},
    };
    size_t i;
    Field **f;
    for (i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
        *names[i].slot = PyUnicode_InternFromString(names[i].text);
        if (*names[i].slot == NULL)
            return -1;
    }
    for (f = ALL_FIELDS; *f != NULL; f++) {
        (*f)->pyname = PyUnicode_InternFromString((*f)->name);
        if ((*f)->pyname == NULL)
            return -1;
    }
    return 0;
}

PyMODINIT_FUNC
PyInit__segpath(void)
{
    PyObject *m, *mod;

    if (intern_all() < 0)
        return NULL;
    zero = PyLong_FromLong(0);
    one = PyLong_FromLong(1);
    float_one = PyFloat_FromDouble(1.0);
    empty_tuple = PyTuple_New(0);
    if (zero == NULL || one == NULL || float_one == NULL || empty_tuple == NULL)
        return NULL;
    mod = PyImport_ImportModule("_heapq");
    if (mod == NULL)
        return NULL;
    heappush = PyObject_GetAttrString(mod, "heappush");
    Py_DECREF(mod);
    if (heappush == NULL)
        return NULL;
    mod = PyImport_ImportModule("collections");
    if (mod == NULL)
        return NULL;
    deque_type = (PyTypeObject *)PyObject_GetAttrString(mod, "deque");
    Py_DECREF(mod);
    if (deque_type == NULL)
        return NULL;
    deque_append = PyObject_GetAttrString((PyObject *)deque_type, "append");
    deque_popleft = PyObject_GetAttrString((PyObject *)deque_type, "popleft");
    if (deque_append == NULL || deque_popleft == NULL)
        return NULL;
    m = PyModule_Create(&module_def);
    if (m == NULL)
        return NULL;
    module_ref = m;  /* borrowed: the module outlives its functions' use */
    return m;
}
