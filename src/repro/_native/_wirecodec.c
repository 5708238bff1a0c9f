/* Native wire-v2 envelope codec.
 *
 * A hand-written CPython extension implementing exactly the binary format of
 * repro/runtime/wire.py: struct-packed fixed header, optional message id and
 * label, then the body's fields as tagged values (zigzag varint ints, raw
 * big-endian doubles, length-prefixed UTF-8, encoding-sorted sets).  The
 * canonical-bytes law is the contract: for every envelope the interpreted
 * codec accepts, this module must produce the *identical* frame bytes and
 * decode frames to equal objects — enforced by tests/native and by the
 * import-time probe in wire.py.
 *
 * The module is configured (not compiled) with the body registry: wire.py
 * passes its kind/code/field tables plus the Envelope/MessageId/TreeId
 * classes at import time, so both implementations derive from one source of
 * truth and cannot skew.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <string.h>

#define NATIVE_ABI_VERSION 3

/* Value tags — must mirror wire.py. */
#define T_NONE 0
#define T_TRUE 1
#define T_FALSE 2
#define T_INT 3
#define T_FLOAT 4
#define T_STR 5
#define T_TUPLE 6
#define T_LIST 7
#define T_SET 8
#define T_MAP 9
#define T_MID 10
#define T_TID 11
#define T_REPR 12

#define F_MSGID 0x01
#define F_LABEL 0x02
#define F_CONTROL 0x04

/* ------------------------------------------------------------------ */
/* Module configuration (set by wire.py via configure())               */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject *cls;    /* body dataclass */
    PyObject *names;  /* tuple of field-name strings */
    Py_ssize_t nfields;
} DecodeEntry;

typedef struct {
    int ready;
    PyObject *envelope_cls;
    PyObject *message_id_cls;
    PyObject *tree_id_cls;
    PyObject *wire_error;
    PyObject *struct_error;
    PyObject *control_str;
    PyObject *normal_str;
    PyObject *encode_types;  /* dict: type -> (code, names) */
    PyObject *registry;      /* dict: kind -> (code, cls, names) — isinstance fallback */
    DecodeEntry *decode;     /* indexed by kind code; [0] unused */
    Py_ssize_t ndecode;
    int fast_construct;
    unsigned char binary_tag;
    long max_frame;
    int max_depth; /* deepest container nesting of a body field, both ways */
    /* Direct __slots__ offsets of the 8 Envelope fields (src, dst, category,
     * body, msg_id, label, send_time, deliver_time) when the class is
     * slotted; env_slots == 0 falls back to the generic attribute protocol
     * (e.g. Python 3.9, where the dataclass has no slots). */
    Py_ssize_t env_off[8];
    int env_slots;
    /* interned attribute names */
    PyObject *s_src, *s_dst, *s_category, *s_body, *s_msg_id, *s_label;
    PyObject *s_send_time, *s_deliver_time;
    PyObject *s_sender, *s_send_index, *s_initiator, *s_initiation_seq;
    PyObject *zero_float;
    PyObject *empty_tuple;
} Config;

static Config cfg;

/* ------------------------------------------------------------------ */
/* Growable byte buffer                                                */
/* ------------------------------------------------------------------ */

typedef struct {
    unsigned char *data;
    Py_ssize_t len;
    Py_ssize_t cap;
} WBuf;

static int
wbuf_init(WBuf *b, Py_ssize_t cap)
{
    if (cap < 64)
        cap = 64;
    b->data = (unsigned char *)PyMem_Malloc((size_t)cap);
    if (b->data == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    b->len = 0;
    b->cap = cap;
    return 0;
}

static void
wbuf_free(WBuf *b)
{
    PyMem_Free(b->data);
    b->data = NULL;
    b->len = b->cap = 0;
}

static int
wbuf_reserve(WBuf *b, Py_ssize_t extra)
{
    if (b->len + extra <= b->cap)
        return 0;
    Py_ssize_t cap = b->cap;
    while (cap < b->len + extra)
        cap *= 2;
    unsigned char *data = (unsigned char *)PyMem_Realloc(b->data, (size_t)cap);
    if (data == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    b->data = data;
    b->cap = cap;
    return 0;
}

static int
wbuf_push(WBuf *b, unsigned char byte)
{
    if (wbuf_reserve(b, 1) < 0)
        return -1;
    b->data[b->len++] = byte;
    return 0;
}

static int
wbuf_append(WBuf *b, const unsigned char *data, Py_ssize_t n)
{
    if (wbuf_reserve(b, n) < 0)
        return -1;
    memcpy(b->data + b->len, data, (size_t)n);
    b->len += n;
    return 0;
}

/* One long-lived encode buffer per process: encoding is synchronous and
 * single-threaded, so entry points borrow this instead of a malloc/free
 * pair per call.  The busy flag covers re-entrancy (repr() of an unknown
 * value or a body constructor can run arbitrary Python): a nested encode
 * falls back to a stack-local buffer. */
static WBuf shared_buf;
static int shared_busy;

static WBuf *
wbuf_acquire(WBuf *local)
{
    if (!shared_busy) {
        if (shared_buf.data == NULL && wbuf_init(&shared_buf, 4096) < 0)
            return NULL;
        shared_busy = 1;
        shared_buf.len = 0;
        return &shared_buf;
    }
    if (wbuf_init(local, 128) < 0)
        return NULL;
    return local;
}

static void
wbuf_release(WBuf *b)
{
    if (b == &shared_buf)
        shared_busy = 0;
    else
        wbuf_free(b);
}

/* ------------------------------------------------------------------ */
/* Error helpers                                                       */
/* ------------------------------------------------------------------ */

static int
wire_error(const char *msg)
{
    PyErr_SetString(cfg.wire_error, msg);
    return -1;
}

static int
nesting_error(void)
{
    PyErr_Format(cfg.wire_error, "value nesting exceeds MAX_VALUE_DEPTH=%d",
                 cfg.max_depth);
    return -1;
}

static int
struct_range_error(void)
{
    PyErr_SetString(cfg.struct_error, "argument out of range");
    return -1;
}

/* ------------------------------------------------------------------ */
/* Fast attribute access                                               */
/* ------------------------------------------------------------------ */

enum {
    E_SRC, E_DST, E_CATEGORY, E_BODY, E_MSG_ID, E_LABEL, E_SEND_TIME,
    E_DELIVER_TIME,
};

/* The storage offset of a T_OBJECT_EX __slots__ member, or -1. */
static Py_ssize_t
slot_offset(PyObject *cls, PyObject *name)
{
    PyObject *descr = PyObject_GetAttr(cls, name);
    if (descr == NULL) {
        PyErr_Clear();
        return -1;
    }
    Py_ssize_t offset = -1;
    if (Py_TYPE(descr) == &PyMemberDescr_Type) {
        PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
        if (member->type == T_OBJECT_EX || member->type == T_OBJECT)
            offset = member->offset;
    }
    Py_DECREF(descr);
    return offset;
}

/* Envelope field read: direct slot load for exact Envelope instances,
 * generic attribute protocol otherwise (subclasses, unslotted builds). */
static PyObject *
env_attr(PyObject *envelope, int idx, PyObject *name)
{
    if (cfg.env_slots && Py_TYPE(envelope) == (PyTypeObject *)cfg.envelope_cls) {
        PyObject *value = *(PyObject **)((char *)envelope + cfg.env_off[idx]);
        if (value != NULL) {
            Py_INCREF(value);
            return value;
        }
    }
    return PyObject_GetAttr(envelope, name);
}

/* MessageId/TreeId field read: these are plain (unslotted) frozen
 * dataclasses, so the value lives in the instance dict. */
static PyObject *
id_attr(PyObject *obj, PyObject *name)
{
    PyObject **dictptr = _PyObject_GetDictPtr(obj);
    if (dictptr != NULL && *dictptr != NULL) {
        PyObject *value = PyDict_GetItemWithError(*dictptr, name);
        if (value != NULL) {
            Py_INCREF(value);
            return value;
        }
        if (PyErr_Occurred())
            return NULL;
    }
    return PyObject_GetAttr(obj, name);
}

/* ------------------------------------------------------------------ */
/* Big-endian scalar packing (struct '>i', '>q', '>d' equivalents)     */
/* ------------------------------------------------------------------ */

static int
pack_be32(WBuf *b, PyObject *value)
{
    if (!PyLong_Check(value)) {
        PyErr_SetString(cfg.struct_error, "required argument is not an integer");
        return -1;
    }
    int overflow = 0;
    long long v = PyLong_AsLongLongAndOverflow(value, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow || v < INT32_MIN || v > INT32_MAX)
        return struct_range_error();
    uint32_t u = (uint32_t)(int32_t)v;
    unsigned char out[4] = {
        (unsigned char)(u >> 24), (unsigned char)(u >> 16),
        (unsigned char)(u >> 8), (unsigned char)u,
    };
    return wbuf_append(b, out, 4);
}

static int
pack_be64(WBuf *b, PyObject *value)
{
    if (!PyLong_Check(value)) {
        PyErr_SetString(cfg.struct_error, "required argument is not an integer");
        return -1;
    }
    int overflow = 0;
    long long v = PyLong_AsLongLongAndOverflow(value, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow)
        return struct_range_error();
    uint64_t u = (uint64_t)v;
    unsigned char out[8];
    for (int i = 0; i < 8; i++)
        out[i] = (unsigned char)(u >> (56 - 8 * i));
    return wbuf_append(b, out, 8);
}

static int
pack_be_double(WBuf *b, double d)
{
    uint64_t u;
    memcpy(&u, &d, 8);
    unsigned char out[8];
    for (int i = 0; i < 8; i++)
        out[i] = (unsigned char)(u >> (56 - 8 * i));
    return wbuf_append(b, out, 8);
}

/* ------------------------------------------------------------------ */
/* Varint / zigzag packing                                             */
/* ------------------------------------------------------------------ */

static int
pack_uvarint64(WBuf *b, uint64_t value)
{
    while (1) {
        unsigned char byte = (unsigned char)(value & 0x7F);
        value >>= 7;
        if (value) {
            if (wbuf_push(b, byte | 0x80) < 0)
                return -1;
        }
        else {
            return wbuf_push(b, byte);
        }
    }
}

/* Arbitrary-precision tail: pack a non-negative PyLong as a uvarint. */
static int
pack_uvarint_object(WBuf *b, PyObject *value)
{
    PyObject *mask = PyLong_FromLong(0x7F);
    PyObject *seven = PyLong_FromLong(7);
    PyObject *current = value;
    Py_INCREF(current);
    int status = -1;
    if (mask == NULL || seven == NULL)
        goto done;
    while (1) {
        PyObject *low = PyNumber_And(current, mask);
        if (low == NULL)
            goto done;
        long byte = PyLong_AsLong(low);
        Py_DECREF(low);
        if (byte == -1 && PyErr_Occurred())
            goto done;
        PyObject *rest = PyNumber_Rshift(current, seven);
        if (rest == NULL)
            goto done;
        int more = PyObject_IsTrue(rest);
        if (more < 0) {
            Py_DECREF(rest);
            goto done;
        }
        if (wbuf_push(b, (unsigned char)(byte | (more ? 0x80 : 0))) < 0) {
            Py_DECREF(rest);
            goto done;
        }
        Py_DECREF(current);
        current = rest;
        if (!more) {
            status = 0;
            goto done;
        }
    }
done:
    Py_XDECREF(current);
    Py_XDECREF(mask);
    Py_XDECREF(seven);
    return status;
}

/* Zigzag-pack any PyLong (value*2 if >= 0 else -value*2-1). */
static int
pack_zigzag_object(WBuf *b, PyObject *value)
{
    int overflow = 0;
    long long v = PyLong_AsLongLongAndOverflow(value, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (!overflow) {
        uint64_t u = (uint64_t)v;
        uint64_t zz = (v >= 0) ? (u << 1) : ~(u << 1);
        return pack_uvarint64(b, zz);
    }
    /* Slow path: |value| >= 2**63.  Same arithmetic as the Python packer. */
    PyObject *one = PyLong_FromLong(1);
    if (one == NULL)
        return -1;
    PyObject *doubled = PyNumber_Lshift(value, one); /* value * 2 */
    if (doubled == NULL) {
        Py_DECREF(one);
        return -1;
    }
    PyObject *zz;
    /* overflow != 0 tells the sign: +1 above range, -1 below. */
    if (overflow > 0) {
        zz = doubled;
        Py_INCREF(zz);
    }
    else {
        PyObject *neg = PyNumber_Negative(doubled); /* -value*2 */
        zz = (neg == NULL) ? NULL : PyNumber_Subtract(neg, one);
        Py_XDECREF(neg);
    }
    Py_DECREF(doubled);
    Py_DECREF(one);
    if (zz == NULL)
        return -1;
    int status = pack_uvarint_object(b, zz);
    Py_DECREF(zz);
    return status;
}

static int
pack_str(WBuf *b, PyObject *value)
{
    Py_ssize_t size = 0;
    const char *utf8 = PyUnicode_AsUTF8AndSize(value, &size);
    if (utf8 == NULL)
        return -1;
    if (pack_uvarint64(b, (uint64_t)size) < 0)
        return -1;
    return wbuf_append(b, (const unsigned char *)utf8, size);
}

/* ------------------------------------------------------------------ */
/* Recursive value encoder (mirror of wire._pack_value)                */
/* ------------------------------------------------------------------ */

static int pack_value(WBuf *b, PyObject *value, int depth);

typedef struct {
    unsigned char *data;
    Py_ssize_t len;
} MemberBlob;

static int
member_blob_cmp(const void *pa, const void *pb)
{
    const MemberBlob *a = (const MemberBlob *)pa;
    const MemberBlob *c = (const MemberBlob *)pb;
    Py_ssize_t n = a->len < c->len ? a->len : c->len;
    int r = memcmp(a->data, c->data, (size_t)n);
    if (r != 0)
        return r;
    if (a->len < c->len)
        return -1;
    if (a->len > c->len)
        return 1;
    return 0;
}

static int
pack_set(WBuf *b, PyObject *value, int depth)
{
    /* Byte-stable: order members by their own encoding (wire.py law). */
    PyObject *iter = PyObject_GetIter(value);
    if (iter == NULL)
        return -1;
    Py_ssize_t count = 0, cap = 8;
    MemberBlob *blobs = (MemberBlob *)PyMem_Malloc(sizeof(MemberBlob) * (size_t)cap);
    int status = -1;
    if (blobs == NULL) {
        PyErr_NoMemory();
        Py_DECREF(iter);
        return -1;
    }
    PyObject *item;
    while ((item = PyIter_Next(iter)) != NULL) {
        WBuf member;
        if (wbuf_init(&member, 32) < 0) {
            Py_DECREF(item);
            goto done;
        }
        if (pack_value(&member, item, depth) < 0) {
            Py_DECREF(item);
            wbuf_free(&member);
            goto done;
        }
        Py_DECREF(item);
        if (count == cap) {
            cap *= 2;
            MemberBlob *grown =
                (MemberBlob *)PyMem_Realloc(blobs, sizeof(MemberBlob) * (size_t)cap);
            if (grown == NULL) {
                PyErr_NoMemory();
                wbuf_free(&member);
                goto done;
            }
            blobs = grown;
        }
        blobs[count].data = member.data;
        blobs[count].len = member.len;
        count++; /* ownership of member.data moves into blobs */
    }
    if (PyErr_Occurred())
        goto done;
    qsort(blobs, (size_t)count, sizeof(MemberBlob), member_blob_cmp);
    if (wbuf_push(b, T_SET) < 0 || pack_uvarint64(b, (uint64_t)count) < 0)
        goto done;
    for (Py_ssize_t i = 0; i < count; i++) {
        if (wbuf_append(b, blobs[i].data, blobs[i].len) < 0)
            goto done;
    }
    status = 0;
done:
    for (Py_ssize_t i = 0; i < count; i++)
        PyMem_Free(blobs[i].data);
    PyMem_Free(blobs);
    Py_DECREF(iter);
    return status;
}

static int
pack_id_pair(WBuf *b, PyObject *value, unsigned char tag, PyObject *first_attr,
             PyObject *second_attr)
{
    PyObject *first = id_attr(value, first_attr);
    if (first == NULL)
        return -1;
    PyObject *second = id_attr(value, second_attr);
    if (second == NULL) {
        Py_DECREF(first);
        return -1;
    }
    int status = -1;
    if (wbuf_push(b, tag) == 0 && pack_zigzag_object(b, first) == 0 &&
        pack_zigzag_object(b, second) == 0)
        status = 0;
    Py_DECREF(first);
    Py_DECREF(second);
    return status;
}

static int
pack_value(WBuf *b, PyObject *value, int depth)
{
    if (depth > cfg.max_depth)
        return nesting_error();
    depth++;
    if (value == Py_None)
        return wbuf_push(b, T_NONE);
    if (value == Py_True)
        return wbuf_push(b, T_TRUE);
    if (value == Py_False)
        return wbuf_push(b, T_FALSE);
    if (PyLong_Check(value)) {
        if (wbuf_push(b, T_INT) < 0)
            return -1;
        return pack_zigzag_object(b, value);
    }
    if (PyFloat_Check(value)) {
        if (wbuf_push(b, T_FLOAT) < 0)
            return -1;
        return pack_be_double(b, PyFloat_AS_DOUBLE(value));
    }
    if (PyUnicode_Check(value)) {
        if (wbuf_push(b, T_STR) < 0)
            return -1;
        return pack_str(b, value);
    }
    int is_mid = PyObject_IsInstance(value, cfg.message_id_cls);
    if (is_mid < 0)
        return -1;
    if (is_mid)
        return pack_id_pair(b, value, T_MID, cfg.s_sender, cfg.s_send_index);
    int is_tid = PyObject_IsInstance(value, cfg.tree_id_cls);
    if (is_tid < 0)
        return -1;
    if (is_tid)
        return pack_id_pair(b, value, T_TID, cfg.s_initiator, cfg.s_initiation_seq);
    if (PyTuple_Check(value) || PyList_Check(value)) {
        int is_tuple = PyTuple_Check(value);
        Py_ssize_t n = PySequence_Size(value);
        if (n < 0)
            return -1;
        if (wbuf_push(b, is_tuple ? T_TUPLE : T_LIST) < 0 ||
            pack_uvarint64(b, (uint64_t)n) < 0)
            return -1;
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *item = is_tuple ? PyTuple_GET_ITEM(value, i)
                                      : PyList_GET_ITEM(value, i);
            if (pack_value(b, item, depth) < 0)
                return -1;
        }
        return 0;
    }
    if (PyAnySet_Check(value))
        return pack_set(b, value, depth);
    if (PyDict_Check(value)) {
        Py_ssize_t n = PyDict_Size(value);
        if (wbuf_push(b, T_MAP) < 0 || pack_uvarint64(b, (uint64_t)n) < 0)
            return -1;
        PyObject *key, *item;
        Py_ssize_t pos = 0;
        while (PyDict_Next(value, &pos, &key, &item)) {
            if (pack_value(b, key, depth) < 0 || pack_value(b, item, depth) < 0)
                return -1;
        }
        return 0;
    }
    /* Same lossy degradation as the JSON path: repr on the wire. */
    PyObject *repr = PyObject_Repr(value);
    if (repr == NULL)
        return -1;
    int status = -1;
    if (wbuf_push(b, T_REPR) == 0 && pack_str(b, repr) == 0)
        status = 0;
    Py_DECREF(repr);
    return status;
}

/* ------------------------------------------------------------------ */
/* Envelope encoder                                                    */
/* ------------------------------------------------------------------ */

/* Append the v2 payload of `envelope` (no length prefix) to `b`. */
static int
encode_envelope_into(WBuf *b, PyObject *envelope)
{
    if (!cfg.ready)
        return wire_error("native codec not configured");
    PyObject *body = env_attr(envelope, E_BODY, cfg.s_body);
    if (body == NULL)
        return -1;
    long kind_code = 0;
    PyObject *names = NULL; /* borrowed */
    if (body != Py_None) {
        PyObject *entry = PyDict_GetItem(cfg.encode_types, (PyObject *)Py_TYPE(body));
        if (entry == NULL) {
            /* Subclass fallback: walk the registry with isinstance, exactly
             * like the interpreted encoder's kind/isinstance check. */
            PyObject *kind, *reg_entry;
            Py_ssize_t pos = 0;
            while (PyDict_Next(cfg.registry, &pos, &kind, &reg_entry)) {
                int hit = PyObject_IsInstance(body, PyTuple_GET_ITEM(reg_entry, 1));
                if (hit < 0) {
                    Py_DECREF(body);
                    return -1;
                }
                if (hit) {
                    entry = reg_entry;
                    break;
                }
            }
            if (entry == NULL) {
                PyErr_Format(cfg.wire_error, "unregistered body type '%s'",
                             Py_TYPE(body)->tp_name);
                Py_DECREF(body);
                return -1;
            }
            kind_code = PyLong_AsLong(PyTuple_GET_ITEM(entry, 0));
            names = PyTuple_GET_ITEM(entry, 2);
        }
        else {
            kind_code = PyLong_AsLong(PyTuple_GET_ITEM(entry, 0));
            names = PyTuple_GET_ITEM(entry, 1);
        }
    }

    PyObject *category = env_attr(envelope, E_CATEGORY, cfg.s_category);
    if (category == NULL) {
        Py_DECREF(body);
        return -1;
    }
    long flags;
    if (category == cfg.control_str)
        flags = F_CONTROL;
    else if (category == cfg.normal_str)
        flags = 0;
    else {
        int eq = PyObject_RichCompareBool(category, cfg.control_str, Py_EQ);
        if (eq > 0)
            flags = F_CONTROL;
        else if (eq == 0) {
            eq = PyObject_RichCompareBool(category, cfg.normal_str, Py_EQ);
            if (eq > 0)
                flags = 0;
            else if (eq == 0) {
                PyErr_Format(cfg.wire_error, "cannot binary-encode category %R",
                             category);
                Py_DECREF(category);
                Py_DECREF(body);
                return -1;
            }
            else
                goto category_error;
        }
        else {
        category_error:
            Py_DECREF(category);
            Py_DECREF(body);
            return -1;
        }
    }
    Py_DECREF(category);

    PyObject *msg_id = env_attr(envelope, E_MSG_ID, cfg.s_msg_id);
    if (msg_id == NULL) {
        Py_DECREF(body);
        return -1;
    }
    PyObject *label = env_attr(envelope, E_LABEL, cfg.s_label);
    if (label == NULL) {
        Py_DECREF(msg_id);
        Py_DECREF(body);
        return -1;
    }
    if (msg_id != Py_None)
        flags |= F_MSGID;
    if (label != Py_None)
        flags |= F_LABEL;

    int status = -1;
    PyObject *src = NULL, *dst = NULL, *send_time = NULL;
    src = env_attr(envelope, E_SRC, cfg.s_src);
    dst = src ? env_attr(envelope, E_DST, cfg.s_dst) : NULL;
    send_time = dst ? env_attr(envelope, E_SEND_TIME, cfg.s_send_time) : NULL;
    if (send_time == NULL)
        goto done;
    double when = PyFloat_AsDouble(send_time);
    if (when == -1.0 && PyErr_Occurred())
        goto done;

    /* Fixed header: tag, kind_code, flags, src (>i), dst (>i), send_time (>d). */
    if (wbuf_push(b, cfg.binary_tag) < 0 ||
        wbuf_push(b, (unsigned char)kind_code) < 0 ||
        wbuf_push(b, (unsigned char)flags) < 0 || pack_be32(b, src) < 0 ||
        pack_be32(b, dst) < 0 || pack_be_double(b, when) < 0)
        goto done;

    if (msg_id != Py_None) {
        PyObject *sender = id_attr(msg_id, cfg.s_sender);
        if (sender == NULL)
            goto done;
        PyObject *send_index = id_attr(msg_id, cfg.s_send_index);
        if (send_index == NULL) {
            Py_DECREF(sender);
            goto done;
        }
        int rc = (pack_be32(b, sender) == 0 && pack_be64(b, send_index) == 0) ? 0 : -1;
        Py_DECREF(sender);
        Py_DECREF(send_index);
        if (rc < 0)
            goto done;
    }
    if (label != Py_None) {
        if (pack_be64(b, label) < 0)
            goto done;
    }
    if (body != Py_None && names != NULL) {
        Py_ssize_t nfields = PyTuple_GET_SIZE(names);
        for (Py_ssize_t i = 0; i < nfields; i++) {
            PyObject *field = PyObject_GetAttr(body, PyTuple_GET_ITEM(names, i));
            if (field == NULL)
                goto done;
            int rc = pack_value(b, field, 0);
            Py_DECREF(field);
            if (rc < 0)
                goto done;
        }
    }
    status = 0;
done:
    Py_XDECREF(send_time);
    Py_XDECREF(dst);
    Py_XDECREF(src);
    Py_DECREF(label);
    Py_DECREF(msg_id);
    Py_DECREF(body);
    return status;
}

/* ------------------------------------------------------------------ */
/* Decoder                                                             */
/* ------------------------------------------------------------------ */

typedef struct {
    const unsigned char *data;
    Py_ssize_t len;
    Py_ssize_t pos;
} Reader;

static int
read_uvarint(Reader *r, uint64_t *fast, PyObject **big)
{
    /* *big receives a new reference when the value exceeds 64 bits. */
    uint64_t result = 0;
    int shift = 0;
    *big = NULL;
    while (1) {
        if (r->pos >= r->len)
            return wire_error("truncated varint in binary frame");
        unsigned char byte = r->data[r->pos++];
        if (shift <= 56) {
            result |= (uint64_t)(byte & 0x7F) << shift;
            if (!(byte & 0x80)) {
                *fast = result;
                return 0;
            }
            shift += 7;
        }
        else {
            /* Arbitrary-precision continuation. */
            PyObject *acc = PyLong_FromUnsignedLongLong(result);
            if (acc == NULL)
                return -1;
            while (1) {
                PyObject *chunk = PyLong_FromLong(byte & 0x7F);
                PyObject *sh = chunk ? PyLong_FromLong(shift) : NULL;
                PyObject *shifted = sh ? PyNumber_Lshift(chunk, sh) : NULL;
                Py_XDECREF(chunk);
                Py_XDECREF(sh);
                if (shifted == NULL) {
                    Py_DECREF(acc);
                    return -1;
                }
                PyObject *merged = PyNumber_Or(acc, shifted);
                Py_DECREF(shifted);
                Py_DECREF(acc);
                if (merged == NULL)
                    return -1;
                acc = merged;
                if (!(byte & 0x80)) {
                    *big = acc;
                    return 0;
                }
                shift += 7;
                if (r->pos >= r->len) {
                    Py_DECREF(acc);
                    return wire_error("truncated varint in binary frame");
                }
                byte = r->data[r->pos++];
            }
        }
    }
}

static PyObject *
read_zigzag(Reader *r)
{
    uint64_t raw = 0;
    PyObject *big = NULL;
    if (read_uvarint(r, &raw, &big) < 0)
        return NULL;
    if (big == NULL) {
        if (!(raw & 1))
            return PyLong_FromUnsignedLongLong(raw >> 1);
        uint64_t magnitude = (raw >> 1) + 1;
        PyObject *positive = PyLong_FromUnsignedLongLong(magnitude);
        if (positive == NULL)
            return NULL;
        PyObject *negative = PyNumber_Negative(positive);
        Py_DECREF(positive);
        return negative;
    }
    PyObject *one = PyLong_FromLong(1);
    if (one == NULL) {
        Py_DECREF(big);
        return NULL;
    }
    PyObject *parity = PyNumber_And(big, one);
    int odd = parity ? PyObject_IsTrue(parity) : -1;
    Py_XDECREF(parity);
    PyObject *result = NULL;
    if (odd == 0) {
        result = PyNumber_Rshift(big, one);
    }
    else if (odd > 0) {
        PyObject *plus = PyNumber_Add(big, one);
        PyObject *half = plus ? PyNumber_Rshift(plus, one) : NULL;
        Py_XDECREF(plus);
        result = half ? PyNumber_Negative(half) : NULL;
        Py_XDECREF(half);
    }
    Py_DECREF(big);
    Py_DECREF(one);
    return result;
}

static PyObject *
read_str(Reader *r)
{
    uint64_t length = 0;
    PyObject *big = NULL;
    if (read_uvarint(r, &length, &big) < 0)
        return NULL;
    if (big != NULL) {
        Py_DECREF(big);
        wire_error("truncated string in binary frame");
        return NULL;
    }
    if (length > (uint64_t)(r->len - r->pos)) {
        wire_error("truncated string in binary frame");
        return NULL;
    }
    PyObject *result = PyUnicode_DecodeUTF8(
        (const char *)(r->data + r->pos), (Py_ssize_t)length, NULL);
    if (result != NULL)
        r->pos += (Py_ssize_t)length;
    return result;
}

/* Fast construction of a MessageId/TreeId: allocate without running the
 * (pure-Python, frozen-dataclass) __init__ and fill the instance dict with
 * exactly the two fields the generated __init__ would have set. */
static PyObject *
make_id_pair(PyObject *cls, PyObject *first_attr, PyObject *first,
             PyObject *second_attr, PyObject *second)
{
    if (cfg.fast_construct) {
        PyTypeObject *tp = (PyTypeObject *)cls;
        PyObject *inst = tp->tp_new(tp, cfg.empty_tuple, NULL);
        if (inst == NULL)
            return NULL;
        PyObject **dictptr = _PyObject_GetDictPtr(inst);
        if (dictptr != NULL) {
            if (*dictptr == NULL) {
                *dictptr = PyDict_New();
                if (*dictptr == NULL) {
                    Py_DECREF(inst);
                    return NULL;
                }
            }
            if (PyDict_SetItem(*dictptr, first_attr, first) < 0 ||
                PyDict_SetItem(*dictptr, second_attr, second) < 0) {
                Py_DECREF(inst);
                return NULL;
            }
            return inst;
        }
        Py_DECREF(inst); /* no instance dict: fall through to the ctor */
    }
    return PyObject_CallFunctionObjArgs(cls, first, second, NULL);
}

static int read_value(Reader *r, PyObject **out, int depth);

static int
read_id_pair(Reader *r, PyObject *cls, PyObject *first_attr, PyObject *second_attr,
             PyObject **out)
{
    PyObject *first = read_zigzag(r);
    if (first == NULL)
        return -1;
    PyObject *second = read_zigzag(r);
    if (second == NULL) {
        Py_DECREF(first);
        return -1;
    }
    *out = make_id_pair(cls, first_attr, first, second_attr, second);
    Py_DECREF(first);
    Py_DECREF(second);
    return (*out == NULL) ? -1 : 0;
}

static int
read_value(Reader *r, PyObject **out, int depth)
{
    if (depth > cfg.max_depth)
        return nesting_error();
    depth++;
    if (r->pos >= r->len)
        return wire_error("truncated value in binary frame");
    unsigned char tag = r->data[r->pos++];
    switch (tag) {
    case T_NONE:
        *out = Py_None;
        Py_INCREF(*out);
        return 0;
    case T_TRUE:
        *out = Py_True;
        Py_INCREF(*out);
        return 0;
    case T_FALSE:
        *out = Py_False;
        Py_INCREF(*out);
        return 0;
    case T_INT:
        *out = read_zigzag(r);
        return (*out == NULL) ? -1 : 0;
    case T_FLOAT: {
        if (r->len - r->pos < 8)
            return wire_error("truncated float in binary frame");
        uint64_t u = 0;
        for (int i = 0; i < 8; i++)
            u = (u << 8) | r->data[r->pos + i];
        r->pos += 8;
        double d;
        memcpy(&d, &u, 8);
        *out = PyFloat_FromDouble(d);
        return (*out == NULL) ? -1 : 0;
    }
    case T_STR:
    case T_REPR:
        *out = read_str(r);
        return (*out == NULL) ? -1 : 0;
    case T_MID:
        return read_id_pair(r, cfg.message_id_cls, cfg.s_sender, cfg.s_send_index, out);
    case T_TID:
        return read_id_pair(r, cfg.tree_id_cls, cfg.s_initiator, cfg.s_initiation_seq,
                            out);
    case T_TUPLE:
    case T_LIST:
    case T_SET: {
        uint64_t count = 0;
        PyObject *big = NULL;
        if (read_uvarint(r, &count, &big) < 0)
            return -1;
        if (big != NULL) {
            Py_DECREF(big);
            return wire_error("truncated value in binary frame");
        }
        PyObject *items = PyList_New(0);
        if (items == NULL)
            return -1;
        for (uint64_t i = 0; i < count; i++) {
            PyObject *item = NULL;
            if (read_value(r, &item, depth) < 0) {
                Py_DECREF(items);
                return -1;
            }
            int rc = PyList_Append(items, item);
            Py_DECREF(item);
            if (rc < 0) {
                Py_DECREF(items);
                return -1;
            }
        }
        if (tag == T_TUPLE)
            *out = PyList_AsTuple(items);
        else if (tag == T_SET)
            *out = PySet_New(items);
        else {
            *out = items;
            return 0;
        }
        Py_DECREF(items);
        return (*out == NULL) ? -1 : 0;
    }
    case T_MAP: {
        uint64_t count = 0;
        PyObject *big = NULL;
        if (read_uvarint(r, &count, &big) < 0)
            return -1;
        if (big != NULL) {
            Py_DECREF(big);
            return wire_error("truncated value in binary frame");
        }
        PyObject *mapping = PyDict_New();
        if (mapping == NULL)
            return -1;
        for (uint64_t i = 0; i < count; i++) {
            PyObject *key = NULL, *item = NULL;
            if (read_value(r, &key, depth) < 0 ||
                read_value(r, &item, depth) < 0) {
                Py_XDECREF(key);
                Py_DECREF(mapping);
                return -1;
            }
            int rc = PyDict_SetItem(mapping, key, item);
            Py_DECREF(key);
            Py_DECREF(item);
            if (rc < 0) {
                Py_DECREF(mapping);
                return -1;
            }
        }
        *out = mapping;
        return 0;
    }
    default:
        PyErr_Format(cfg.wire_error, "unknown binary value tag %d", (int)tag);
        return -1;
    }
}

static int32_t
read_be32(const unsigned char *p)
{
    uint32_t u = ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16) |
                 ((uint32_t)p[2] << 8) | (uint32_t)p[3];
    return (int32_t)u;
}

static int64_t
read_be64(const unsigned char *p)
{
    uint64_t u = 0;
    for (int i = 0; i < 8; i++)
        u = (u << 8) | p[i];
    return (int64_t)u;
}

/* Fast construction of an Envelope without running its Python __init__
 * (a plain field-assigning dataclass __init__; verified by the wire.py
 * probe before the native codec is trusted).  Steals no references. */
static PyObject *
make_envelope(PyObject *src, PyObject *dst, PyObject *category, PyObject *body,
              PyObject *msg_id, PyObject *label, PyObject *send_time)
{
    if (cfg.fast_construct && cfg.env_slots) {
        /* Slotted Envelope: store each field directly at its slot offset
         * (tp_new zero-fills the slots, so plain stores are safe). */
        PyTypeObject *tp = (PyTypeObject *)cfg.envelope_cls;
        PyObject *inst = tp->tp_new(tp, cfg.empty_tuple, NULL);
        if (inst == NULL)
            return NULL;
        PyObject *values[8] = {src, dst, category, body, msg_id, label, send_time,
                               cfg.zero_float};
        for (int i = 0; i < 8; i++) {
            Py_INCREF(values[i]);
            *(PyObject **)((char *)inst + cfg.env_off[i]) = values[i];
        }
        return inst;
    }
    if (cfg.fast_construct) {
        PyTypeObject *tp = (PyTypeObject *)cfg.envelope_cls;
        PyObject *inst = tp->tp_new(tp, cfg.empty_tuple, NULL);
        if (inst == NULL)
            return NULL;
        if (PyObject_SetAttr(inst, cfg.s_src, src) < 0 ||
            PyObject_SetAttr(inst, cfg.s_dst, dst) < 0 ||
            PyObject_SetAttr(inst, cfg.s_category, category) < 0 ||
            PyObject_SetAttr(inst, cfg.s_body, body) < 0 ||
            PyObject_SetAttr(inst, cfg.s_msg_id, msg_id) < 0 ||
            PyObject_SetAttr(inst, cfg.s_label, label) < 0 ||
            PyObject_SetAttr(inst, cfg.s_send_time, send_time) < 0 ||
            PyObject_SetAttr(inst, cfg.s_deliver_time, cfg.zero_float) < 0) {
            Py_DECREF(inst);
            return NULL;
        }
        return inst;
    }
    return PyObject_CallFunctionObjArgs(cfg.envelope_cls, src, dst, category, body,
                                        msg_id, label, send_time, NULL);
}

static PyObject *
decode_payload(Reader *r)
{
    if (!cfg.ready) {
        wire_error("native codec not configured");
        return NULL;
    }
    if (r->len < 19) { /* BBB + i + i + d */
        wire_error("truncated binary envelope header");
        return NULL;
    }
    unsigned char tag = r->data[0];
    unsigned char kind_code = r->data[1];
    unsigned char flags = r->data[2];
    if (tag != cfg.binary_tag) {
        const char *hex = "0123456789ABCDEF"; /* PyErr_Format has no %X before 3.12 */
        PyErr_Format(cfg.wire_error, "bad binary frame tag 0x%c%c", hex[tag >> 4], hex[tag & 15]);
        return NULL;
    }
    int32_t src = read_be32(r->data + 3);
    int32_t dst = read_be32(r->data + 7);
    uint64_t traw = 0;
    for (int i = 0; i < 8; i++)
        traw = (traw << 8) | r->data[11 + i];
    double send_time;
    memcpy(&send_time, &traw, 8);
    r->pos = 19;

    PyObject *msg_id = NULL, *label = NULL, *body = NULL, *result = NULL;
    PyObject *src_obj = NULL, *dst_obj = NULL, *time_obj = NULL;

    if (flags & F_MSGID) {
        if (r->len - r->pos < 12) {
            wire_error("truncated binary message id");
            goto done;
        }
        PyObject *sender = PyLong_FromLong(read_be32(r->data + r->pos));
        PyObject *send_index =
            sender ? PyLong_FromLongLong(read_be64(r->data + r->pos + 4)) : NULL;
        msg_id = send_index ? make_id_pair(cfg.message_id_cls, cfg.s_sender, sender,
                                           cfg.s_send_index, send_index)
                            : NULL;
        Py_XDECREF(sender);
        Py_XDECREF(send_index);
        if (msg_id == NULL)
            goto done;
        r->pos += 12;
    }
    else {
        msg_id = Py_None;
        Py_INCREF(msg_id);
    }
    if (flags & F_LABEL) {
        if (r->len - r->pos < 8) {
            wire_error("truncated binary label");
            goto done;
        }
        label = PyLong_FromLongLong(read_be64(r->data + r->pos));
        if (label == NULL)
            goto done;
        r->pos += 8;
    }
    else {
        label = Py_None;
        Py_INCREF(label);
    }

    if (kind_code == 0) {
        body = Py_None;
        Py_INCREF(body);
    }
    else {
        if ((Py_ssize_t)kind_code >= cfg.ndecode ||
            cfg.decode[kind_code].cls == NULL) {
            PyErr_Format(cfg.wire_error, "unknown binary body kind code %d",
                         (int)kind_code);
            goto done;
        }
        DecodeEntry *entry = &cfg.decode[kind_code];
        PyObject *values = PyTuple_New(entry->nfields);
        if (values == NULL)
            goto done;
        for (Py_ssize_t i = 0; i < entry->nfields; i++) {
            PyObject *value = NULL;
            if (read_value(r, &value, 0) < 0) {
                Py_DECREF(values);
                goto done;
            }
            PyTuple_SET_ITEM(values, i, value);
        }
        body = PyObject_Call(entry->cls, values, NULL);
        Py_DECREF(values);
        if (body == NULL)
            goto done;
    }
    if (r->pos != r->len) {
        PyErr_Format(cfg.wire_error, "%zd trailing byte(s) after the binary body",
                     r->len - r->pos);
        goto done;
    }

    src_obj = PyLong_FromLong(src);
    dst_obj = src_obj ? PyLong_FromLong(dst) : NULL;
    time_obj = dst_obj ? PyFloat_FromDouble(send_time) : NULL;
    if (time_obj == NULL)
        goto done;
    result = make_envelope(src_obj, dst_obj,
                           (flags & F_CONTROL) ? cfg.control_str : cfg.normal_str,
                           body, msg_id, label, time_obj);
done:
    Py_XDECREF(src_obj);
    Py_XDECREF(dst_obj);
    Py_XDECREF(time_obj);
    Py_XDECREF(msg_id);
    Py_XDECREF(label);
    Py_XDECREF(body);
    return result;
}

/* The one place a payload's malformation becomes a WireError: whatever a
 * hostile frame made the reader raise (undecodable UTF-8, an unhashable map
 * key or set member) is reported as the interpreted decoder reports it. */
static PyObject *
decode_from_reader(Reader *r)
{
    PyObject *result = decode_payload(r);
    if (result == NULL && (PyErr_ExceptionMatches(PyExc_ValueError) ||
                           PyErr_ExceptionMatches(PyExc_TypeError) ||
                           PyErr_ExceptionMatches(PyExc_RecursionError))) {
        PyObject *type, *value, *traceback;
        PyErr_Fetch(&type, &value, &traceback);
        PyErr_NormalizeException(&type, &value, &traceback);
        PyErr_Format(cfg.wire_error, "malformed binary frame: %s: %S",
                     ((PyTypeObject *)type)->tp_name, value ? value : Py_None);
        Py_XDECREF(type);
        Py_XDECREF(value);
        Py_XDECREF(traceback);
    }
    return result;
}

/* ------------------------------------------------------------------ */
/* Python-visible API                                                  */
/* ------------------------------------------------------------------ */

static PyObject *
py_encode_envelope_binary(PyObject *self, PyObject *envelope)
{
    WBuf local;
    WBuf *b = wbuf_acquire(&local);
    if (b == NULL)
        return NULL;
    if (encode_envelope_into(b, envelope) < 0) {
        wbuf_release(b);
        return NULL;
    }
    PyObject *result = PyBytes_FromStringAndSize((const char *)b->data, b->len);
    wbuf_release(b);
    return result;
}

static int
frame_into(WBuf *b, PyObject *envelope)
{
    /* Append one length-prefixed frame; returns -1 with an exception set. */
    Py_ssize_t header_at = b->len;
    static const unsigned char placeholder[4] = {0, 0, 0, 0};
    if (wbuf_append(b, placeholder, 4) < 0)
        return -1;
    if (encode_envelope_into(b, envelope) < 0)
        return -1;
    Py_ssize_t payload = b->len - header_at - 4;
    if (payload > cfg.max_frame) {
        PyErr_Format(cfg.wire_error, "frame of %zd bytes exceeds MAX_FRAME=%ld",
                     payload, cfg.max_frame);
        return -1;
    }
    uint32_t u = (uint32_t)payload;
    b->data[header_at] = (unsigned char)(u >> 24);
    b->data[header_at + 1] = (unsigned char)(u >> 16);
    b->data[header_at + 2] = (unsigned char)(u >> 8);
    b->data[header_at + 3] = (unsigned char)u;
    return 0;
}

static PyObject *
py_dumps_frame(PyObject *self, PyObject *envelope)
{
    WBuf local;
    WBuf *b = wbuf_acquire(&local);
    if (b == NULL)
        return NULL;
    if (frame_into(b, envelope) < 0) {
        wbuf_release(b);
        return NULL;
    }
    PyObject *result = PyBytes_FromStringAndSize((const char *)b->data, b->len);
    wbuf_release(b);
    return result;
}

static PyObject *
py_encode_frames(PyObject *self, PyObject *envelopes)
{
    /* One buffer of length-prefixed frames for a whole batch (v2 only). */
    PyObject *seq = PySequence_Fast(envelopes, "encode_frames needs a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    WBuf local;
    WBuf *b = wbuf_acquire(&local);
    if (b == NULL) {
        Py_DECREF(seq);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        if (frame_into(b, PySequence_Fast_GET_ITEM(seq, i)) < 0) {
            wbuf_release(b);
            Py_DECREF(seq);
            return NULL;
        }
    }
    Py_DECREF(seq);
    PyObject *result = PyBytes_FromStringAndSize((const char *)b->data, b->len);
    wbuf_release(b);
    return result;
}

static PyObject *
py_decode_envelope_binary(PyObject *self, PyObject *blob)
{
    Py_buffer view;
    if (PyObject_GetBuffer(blob, &view, PyBUF_SIMPLE) < 0)
        return NULL;
    Reader r = {(const unsigned char *)view.buf, view.len, 0};
    PyObject *result = decode_from_reader(&r);
    PyBuffer_Release(&view);
    return result;
}

static PyObject *
py_roundtrip(PyObject *self, PyObject *envelope)
{
    /* Full serialize + deserialize through the v2 wire format: build the
     * length-prefixed frame, then parse the payload back — the native
     * equivalent of loads_frame(dumps_frame(env)[HEADER_SIZE:]), minus the
     * intermediate bytes objects (the zero-copy claim, measured honestly:
     * every byte of the frame is still produced and parsed). */
    WBuf local;
    WBuf *b = wbuf_acquire(&local);
    if (b == NULL)
        return NULL;
    if (frame_into(b, envelope) < 0) {
        wbuf_release(b);
        return NULL;
    }
    Reader r = {b->data + 4, b->len - 4, 0};
    PyObject *result = decode_from_reader(&r);
    wbuf_release(b);
    return result;
}

/* ------------------------------------------------------------------ */
/* configure()                                                         */
/* ------------------------------------------------------------------ */

static void
config_clear(void)
{
    Py_CLEAR(cfg.envelope_cls);
    Py_CLEAR(cfg.message_id_cls);
    Py_CLEAR(cfg.tree_id_cls);
    Py_CLEAR(cfg.wire_error);
    Py_CLEAR(cfg.struct_error);
    Py_CLEAR(cfg.control_str);
    Py_CLEAR(cfg.normal_str);
    Py_CLEAR(cfg.encode_types);
    Py_CLEAR(cfg.registry);
    if (cfg.decode != NULL) {
        for (Py_ssize_t i = 0; i < cfg.ndecode; i++) {
            Py_XDECREF(cfg.decode[i].cls);
            Py_XDECREF(cfg.decode[i].names);
        }
        PyMem_Free(cfg.decode);
        cfg.decode = NULL;
        cfg.ndecode = 0;
    }
    cfg.ready = 0;
}

static PyObject *
py_configure(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {
        "envelope", "message_id", "tree_id", "wire_error", "struct_error",
        "control",  "normal",     "binary_tag", "max_frame", "max_depth",
        "encode_types", "registry", "decode",   "fast_construct", NULL,
    };
    PyObject *envelope, *message_id, *tree_id, *wire_err, *struct_err;
    PyObject *control, *normal, *encode_types, *registry, *decode;
    int binary_tag, max_depth, fast_construct;
    long max_frame;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "OOOOOOOiliOOOp", keywords, &envelope, &message_id,
            &tree_id, &wire_err, &struct_err, &control, &normal, &binary_tag,
            &max_frame, &max_depth, &encode_types, &registry, &decode,
            &fast_construct))
        return NULL;
    if (!PyDict_Check(encode_types) || !PyDict_Check(registry) ||
        !PyList_Check(decode)) {
        PyErr_SetString(PyExc_TypeError,
                        "encode_types/registry must be dicts, decode a list");
        return NULL;
    }
    config_clear();
    Py_ssize_t ndecode = PyList_GET_SIZE(decode);
    cfg.decode = (DecodeEntry *)PyMem_Calloc((size_t)ndecode, sizeof(DecodeEntry));
    if (cfg.decode == NULL && ndecode > 0)
        return PyErr_NoMemory();
    cfg.ndecode = ndecode;
    for (Py_ssize_t i = 0; i < ndecode; i++) {
        PyObject *entry = PyList_GET_ITEM(decode, i);
        if (entry == Py_None)
            continue; /* code 0 = no body */
        if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 3) {
            config_clear();
            PyErr_SetString(PyExc_TypeError,
                            "decode entries must be (kind, cls, names) tuples");
            return NULL;
        }
        cfg.decode[i].cls = PyTuple_GET_ITEM(entry, 1);
        cfg.decode[i].names = PyTuple_GET_ITEM(entry, 2);
        Py_INCREF(cfg.decode[i].cls);
        Py_INCREF(cfg.decode[i].names);
        cfg.decode[i].nfields = PyTuple_GET_SIZE(cfg.decode[i].names);
    }
    cfg.envelope_cls = envelope;
    cfg.message_id_cls = message_id;
    cfg.tree_id_cls = tree_id;
    cfg.wire_error = wire_err;
    cfg.struct_error = struct_err;
    cfg.control_str = control;
    cfg.normal_str = normal;
    cfg.encode_types = encode_types;
    cfg.registry = registry;
    Py_INCREF(envelope);
    Py_INCREF(message_id);
    Py_INCREF(tree_id);
    Py_INCREF(wire_err);
    Py_INCREF(struct_err);
    Py_INCREF(control);
    Py_INCREF(normal);
    Py_INCREF(encode_types);
    Py_INCREF(registry);
    cfg.binary_tag = (unsigned char)binary_tag;
    cfg.max_frame = max_frame;
    cfg.max_depth = max_depth;
    cfg.fast_construct = fast_construct;
    PyObject *env_names[8] = {cfg.s_src, cfg.s_dst, cfg.s_category, cfg.s_body,
                              cfg.s_msg_id, cfg.s_label, cfg.s_send_time,
                              cfg.s_deliver_time};
    cfg.env_slots = 1;
    for (int i = 0; i < 8; i++) {
        cfg.env_off[i] = slot_offset(envelope, env_names[i]);
        if (cfg.env_off[i] < 0)
            cfg.env_slots = 0;
    }
    cfg.ready = 1;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"configure", (PyCFunction)py_configure, METH_VARARGS | METH_KEYWORDS,
     "Install the body registry and identity classes (called by wire.py)."},
    {"encode_envelope_binary", py_encode_envelope_binary, METH_O,
     "The v2 payload for an envelope (no length prefix)."},
    {"decode_envelope_binary", py_decode_envelope_binary, METH_O,
     "Inverse of encode_envelope_binary; accepts any bytes-like object."},
    {"dumps_frame", py_dumps_frame, METH_O,
     "One length-prefixed v2 frame for an envelope."},
    {"encode_frames", py_encode_frames, METH_O,
     "One contiguous buffer of length-prefixed v2 frames for a batch."},
    {"roundtrip", py_roundtrip, METH_O,
     "Full v2 serialize + deserialize of one envelope."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT,
    "repro._native._wirecodec",
    "Compiled wire-v2 envelope codec (see repro/runtime/wire.py).",
    -1,
    methods,
};

PyMODINIT_FUNC
PyInit__wirecodec(void)
{
    PyObject *module = PyModule_Create(&moduledef);
    if (module == NULL)
        return NULL;
    memset(&cfg, 0, sizeof(cfg));
    cfg.s_src = PyUnicode_InternFromString("src");
    cfg.s_dst = PyUnicode_InternFromString("dst");
    cfg.s_category = PyUnicode_InternFromString("category");
    cfg.s_body = PyUnicode_InternFromString("body");
    cfg.s_msg_id = PyUnicode_InternFromString("msg_id");
    cfg.s_label = PyUnicode_InternFromString("label");
    cfg.s_send_time = PyUnicode_InternFromString("send_time");
    cfg.s_deliver_time = PyUnicode_InternFromString("deliver_time");
    cfg.s_sender = PyUnicode_InternFromString("sender");
    cfg.s_send_index = PyUnicode_InternFromString("send_index");
    cfg.s_initiator = PyUnicode_InternFromString("initiator");
    cfg.s_initiation_seq = PyUnicode_InternFromString("initiation_seq");
    cfg.zero_float = PyFloat_FromDouble(0.0);
    cfg.empty_tuple = PyTuple_New(0);
    if (cfg.empty_tuple == NULL || cfg.zero_float == NULL) {
        Py_DECREF(module);
        return NULL;
    }
    if (PyModule_AddIntConstant(module, "NATIVE_ABI", NATIVE_ABI_VERSION) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
