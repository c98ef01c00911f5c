/* Cycle kernel of the compiled backend.

   Plain C99 with no Python headers: compiled.py builds it with cc into a
   shared library and drives it through ctypes. All fixed-size state is
   int64_t arrays cut from one block that the rk struct owns; the delivery
   ring and the fired log grow, and are the only other allocations. The
   exported ABI is rk_new, rk_free, rk_run, rk_fired and rk_read. One
   rk_run call runs many cycles, writing their fire counts and charges
   into the blocks of the Trace that Engine.run allocates (the Python
   cores fill them a cycle at a time through Trace.add), or, given NULL
   blocks, only advancing; rk_fired copies out the fired indices it logged.

   Each cycle runs the four phases of the cycle specification (fire, leak,
   deliver, settle; README "Cycle model", written out phase by phase in
   reference.py) in three passes over the neurons: two with the deliveries
   between them, and a third for STDP, run only when the table is not
   empty. pycore.py runs the same passes in the same order:

     1. FIRE then LEAK for each neuron. A firing neuron pushes its outgoing
        synapses into the delivery ring, zero-delay ones into the slot
        DELIVER drains next.
     2. DELIVER, the one pass over the synapses: this cycle's ring slot,
        then this cycle's stimulus events.
     3. The report: a copy of the charges, which are now the values SETTLE
        compares against the thresholds.
     4. SETTLE for each neuron: threshold test, then the resting floor and
        the refractory bookkeeping.
     5. STDP for each neuron that exceeded in this cycle or whose last
        exceed the table still reaches forward from.

   Within a neuron pass, the steps of neuron i touch only the state of
   neuron i and of the synapses into it, besides the ring pushes of FIRE,
   which no other step of the pass reads. So fusing the steps per neuron
   gives the same result as running each over all neurons in turn, and
   splitting STDP off SETTLE does too: STDP changes only weights, which
   SETTLE does not read, and reads the exceed stamp, which SETTLE sets to t
   exactly where the threshold test holds. SETTLE changes a charge only
   after its own threshold test, so the report copied before the pass
   holds the compared values. Every backend computes in int64_t, and the
   hardware and stimulus rules (netmodel.MAX_WIDTH, layout.stimulus_problem)
   keep every sum the kernel forms inside it.

   "This cycle" needs no flags that must be cleared again: a synapse
   delivered in cycle t exactly when its last delivery stamp equals t, and
   a neuron fires in cycle t when its exceed stamp is t - 1 (NEVER is
   below -1). A neuron needs no stamp of its own for "got a delivery":
   STDP depression tests the stamp of each synapse into it.

   The STDP loops take no branch that depends on the data: whether an
   entry applies depends on the synapse's delivery stamp, so such a branch
   mispredicts often, and on the dense benchmark network (about 13.6k
   potentiation and 640 depression visits a cycle) those branches took
   most of the STDP time. Each visit adds the entry, masked to 0 where none
   applies, and always stores the clamped weight, which after adding 0 is
   the weight itself (validate_network keeps every weight between the
   rails). Potentiation reads a never-delivered stamp as t - half - 1, one
   cycle beyond the table's reach, so its gap fails the same test as a
   stamp too old; the gap against NEVER itself, t + 2, overflows once
   t >= 2**63 - 2. The loops need most of the registers, so they run in a
   pass of their own: inside SETTLE's loop they made gcc 12 keep that
   loop's index and bound on the stack, about 1 us a cycle on a
   1024-neuron network with STDP off.

   The delivery ring has one growable slot per cycle mod slots, where slots
   is the longest delay rk_new is given + 1: no caller passes a size, and
   hw.max_delay sizes nothing. A synapse enters a slot at most once before
   it drains, as its delay is shorter than the ring. A cycle's slot is
   base = cycle % slots, and a push with delay d goes to base + d, less
   slots when that reaches slots. Per-delay FIFOs of fires ran the dense
   benchmark network 18-28% slower (ROADMAP item 2).

   rk_step copies every field and array pointer it reads into locals and
   qualifies the arrays restrict, which holds because they are disjoint
   ranges of the state block, or a ring slot's own allocation, and none
   covers a field of k; so a store through one array makes the compiler
   load neither the others nor k's fields again. LEAK and the resting
   floors are conditional expressions, which compile to conditional moves
   rather than branches that go either way about half the time. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { PH_STD = 0, PH_ABS = 1, PH_REL = 2 };
enum { NEVER = -2 }; /* the stamp for never: below -1, so no cycle t reads it as t - 1 */

typedef struct {
    int64_t *data;
    int64_t size;
    int64_t cap;
} slot;

/* Every array pointer of an rk points into its one state block, whose
   ranges follow one another in the order of the fields below: first the
   input rk_new copies (the neuron settings, the synapse columns, the
   events, the STDP table), then the state and the adjacency rk_new builds.
   A range of zero values takes no room, so its pointer may equal the
   next one's; nothing reads through it. */
typedef struct rk {
    int64_t n, n_syn, n_ev, slots, table_len, weight_lo, weight_hi;
    int64_t cycle, ev_cursor;

    /* Per-neuron settings, n values each; threshold starts the block. */
    int64_t *threshold, *std_rest, *ref_rest, *abs_ref, *rel_ref, *leak;

    /* Per-synapse settings in declaration order, n_syn values each. The
       weights change under STDP. */
    int64_t *syn_pre, *syn_post, *syn_weight, *syn_delay;

    /* Stimulus events sorted by cycle, n_ev values each; the value is what
       the event adds, the input spike amount or the injected charge. */
    int64_t *ev_cycle, *ev_neuron, *ev_value;

    int64_t *table; /* table_len values */

    /* Per-neuron state. phase_left follows phase, so rk_read copies both in
       one go. last_exceed is a cycle stamp: the last cycle the charge
       exceeded the threshold, NEVER for never. */
    int64_t *acc, *phase, *phase_left, *last_exceed;

    /* The cycle stamp of each synapse's last delivery, NEVER for never. */
    int64_t *syn_last_delivery;

    /* CSR adjacency in declaration order: the synapses leaving neuron i are
       out_list[out_start[i] .. out_start[i + 1]), with their delays at the
       same places of out_delay; those entering it are
       pre_list[pre_start[i] .. pre_start[i + 1]). */
    int64_t *out_start, *pre_start, *out_list, *out_delay, *pre_list;

    slot *ring;
    slot fired; /* the fired indices logged by the current recording rk_run */
} rk;

/* Stable counting sort of synapse indices by key into CSR form. start must
   hold n + 1 zeros. */
static void csr(int64_t n, int64_t m, const int64_t *key, int64_t *start, int64_t *list)
{
    int64_t i, j;
    for (j = 0; j < m; j++)
        start[key[j] + 1]++;
    for (i = 0; i < n; i++)
        start[i + 1] += start[i];
    /* Filling advances start[i] to the end of run i, the start of run i + 1. */
    for (j = 0; j < m; j++)
        list[start[key[j]]++] = j;
    for (i = n; i > 0; i--)
        start[i] = start[i - 1];
    start[0] = 0;
}

void rk_free(rk *k)
{
    int64_t s;
    if (!k)
        return;
    if (k->ring)
        for (s = 0; s < k->slots; s++)
            free(k->ring[s].data);
    free(k->ring);
    free(k->fired.data);
    free(k->threshold);
    free(k);
}

/* input holds, end to end, six columns of n values (threshold, standard
   resting, refractory resting, absolute refractory, relative refractory,
   leak), four columns of n_syn values (pre, post, weight, delay), three
   columns of n_ev values (cycle, neuron, value, with cycles
   non-decreasing) and the table_len entries of the STDP table. Every
   neuron index lies in [0, n), every delay in [0, 2**62), every weight in
   the signed range of weight_width bits, every leak and refractory period
   is >= 0 (validate_network checks all of these) and
   1 <= weight_width <= 63. rk_step relies on the signs: a leak of 0 leaves
   a charge as it is without a test, and a neuron with neither refractory
   period has a relative period of exactly 0. It relies on the weight range
   too: clamping a weight it adds 0 to leaves the weight as it is. Returns
   NULL when an allocation fails. */
rk *rk_new(int64_t n, int64_t n_syn, int64_t n_ev, int64_t table_len, int64_t weight_width,
           const int64_t *input)
{
    const int64_t given = 6 * n + 4 * n_syn + 3 * n_ev + table_len;
    int64_t i, *p;
    rk *k = calloc(1, sizeof *k);
    if (!k)
        return NULL;
    k->n = n;
    k->n_syn = n_syn;
    k->n_ev = n_ev;
    k->table_len = table_len;
    k->weight_lo = -((int64_t)1 << (weight_width - 1));
    k->weight_hi = -k->weight_lo - 1;

    /* The ring has the longest delay + 1 slots, 1 without synapses. The
       delays are input[6n + 3 n_syn .. 6n + 4 n_syn). */
    k->slots = 1;
    for (i = 6 * n + 3 * n_syn; i < 6 * n + 4 * n_syn; i++)
        k->slots = input[i] < k->slots ? k->slots : input[i] + 1;

    /* The state block: the input, 4n + n_syn values of state and
       2(n + 1) + 3 n_syn of adjacency, so never a zero-size allocation.
       slots is at least 1. */
    k->threshold = p = calloc((size_t)(given + 4 * n + n_syn + 2 * (n + 1) + 3 * n_syn),
                              sizeof *p);
    k->ring = calloc((size_t)k->slots, sizeof *k->ring);
    if (!p || !k->ring) {
        rk_free(k);
        return NULL;
    }
    if (given)
        memcpy(p, input, (size_t)given * sizeof *p);
    k->std_rest = p += n;
    k->ref_rest = p += n;
    k->abs_ref = p += n;
    k->rel_ref = p += n;
    k->leak = p += n;
    k->syn_pre = p += n;
    k->syn_post = p += n_syn;
    k->syn_weight = p += n_syn;
    k->syn_delay = p += n_syn;
    k->ev_cycle = p += n_syn;
    k->ev_neuron = p += n_ev;
    k->ev_value = p += n_ev;
    k->table = p += n_ev;
    k->acc = p += table_len;
    k->phase = p += n;
    k->phase_left = p += n;
    k->last_exceed = p += n;
    k->syn_last_delivery = p += n;
    k->out_start = p += n_syn;
    k->pre_start = p += n + 1;
    k->out_list = p += n + 1;
    k->out_delay = p += n_syn;
    k->pre_list = p + n_syn;

    for (i = 0; i < n; i++) {
        k->acc[i] = k->std_rest[i];
        k->last_exceed[i] = NEVER;
    }
    for (i = 0; i < n_syn; i++)
        k->syn_last_delivery[i] = NEVER;
    csr(n, n_syn, k->syn_pre, k->out_start, k->out_list);
    csr(n, n_syn, k->syn_post, k->pre_start, k->pre_list);
    for (i = 0; i < n_syn; i++)
        k->out_delay[i] = k->syn_delay[k->out_list[i]];
    return k;
}

/* Doubles the capacity of s, from 8, until it holds need values and s has
   storage; -1 when that cannot be allocated. */
static int reserve(slot *s, int64_t need)
{
    int64_t cap = s->cap ? s->cap : 8, *data;
    if (s->cap && need <= s->cap)
        return 0;
    while (cap < need)
        cap *= 2;
    data = realloc(s->data, (size_t)cap * sizeof *data);
    if (!data)
        return -1;
    s->data = data;
    s->cap = cap;
    return 0;
}

/* Appends j to s. The rare growth is a function of its own, so that the
   common case stays small enough to inline in the loops. */
static int push(slot *s, int64_t j)
{
    if (s->size == s->cap && reserve(s, s->size + 1) < 0)
        return -1;
    s->data[s->size++] = j;
    return 0;
}

/* One integration cycle. Appends the indices of the neurons that fired to
   fired and copies the charges as compared against the thresholds, before
   the resting floors, to charges (n slots); either may be NULL. Returns the
   number of neurons that fired, or -1 when an allocation failed, after which
   the state is undefined and k may only be freed. */
static int64_t rk_step(rk *k, slot *fired, int64_t *charges)
{
    const int64_t t = k->cycle, n = k->n, n_ev = k->n_ev, slots = k->slots;
    const int64_t base = t % slots, table_len = k->table_len, half = table_len / 2;
    const int64_t lo = k->weight_lo, hi = k->weight_hi;
    const int64_t *restrict threshold = k->threshold, *restrict std_rest = k->std_rest,
                  *restrict ref_rest = k->ref_rest, *restrict abs_ref = k->abs_ref,
                  *restrict rel_ref = k->rel_ref, *restrict leak = k->leak,
                  *restrict syn_post = k->syn_post, *restrict out_start = k->out_start,
                  *restrict out_list = k->out_list, *restrict out_delay = k->out_delay,
                  *restrict pre_start = k->pre_start, *restrict pre_list = k->pre_list,
                  *restrict table = k->table, *restrict ev_cycle = k->ev_cycle,
                  *restrict ev_neuron = k->ev_neuron, *restrict ev_value = k->ev_value;
    int64_t *restrict acc = k->acc, *restrict phase = k->phase,
            *restrict phase_left = k->phase_left, *restrict last_exceed = k->last_exceed,
            *restrict syn_weight = k->syn_weight, *restrict syn_last_delivery = k->syn_last_delivery;
    slot *restrict ring = k->ring;
    const int64_t *restrict now;
    int64_t *restrict log = NULL;
    int64_t i, j, p, x, e, s, a, ph, lk, fl, w, delta, ok, last, size, count = 0;

    /* Room for every neuron to fire, so FIRE logs without a capacity test. */
    if (fired) {
        if (reserve(fired, fired->size + n) < 0)
            return -1;
        log = fired->data + fired->size;
    }

    /* FIRE, then LEAK, suspended during absolute refractory. A fired neuron
       rests at its floor, so LEAK leaves it as it is. */
    for (i = 0; i < n; i++) {
        a = acc[i];
        ph = phase[i];
        if (last_exceed[i] == t - 1) {
            if (log)
                log[count] = i;
            count++;
            for (x = out_start[i]; x < out_start[i + 1]; x++) {
                s = base + out_delay[x];
                s -= s >= slots ? slots : 0;
                if (push(&ring[s], out_list[x]) < 0)
                    return -1;
            }
            a = rel_ref[i] > 0 ? ref_rest[i] : std_rest[i];
            ph = abs_ref[i] > 0 ? PH_ABS : rel_ref[i] > 0 ? PH_REL : PH_STD;
            phase[i] = ph;
            phase_left[i] = abs_ref[i] > 0 ? abs_ref[i] : rel_ref[i];
        }
        lk = ph == PH_ABS ? 0 : leak[i];
        fl = ph == PH_STD ? std_rest[i] : ref_rest[i];
        /* a - lk only where a > fl, so it cannot overflow */
        acc[i] = a > fl ? (a - lk > fl ? a - lk : fl) : a;
    }
    if (fired)
        fired->size += count;

    /* DELIVER */
    now = ring[base].data;
    size = ring[base].size;
    for (x = 0; x < size; x++) {
        j = now[x];
        syn_last_delivery[j] = t;
        p = syn_post[j];
        acc[p] += phase[p] == PH_ABS ? 0 : syn_weight[j];
    }
    ring[base].size = 0;
    for (e = k->ev_cursor; e < n_ev && ev_cycle[e] == t; e++) {
        i = ev_neuron[e];
        acc[i] += phase[i] == PH_ABS ? 0 : ev_value[e];
    }
    k->ev_cursor = e;

    /* The report */
    if (charges && n)
        memcpy(charges, acc, (size_t)n * sizeof *charges);

    /* SETTLE: threshold comparison, then the resting floors and the
       refractory bookkeeping */
    for (i = 0; i < n; i++) {
        a = acc[i];
        last_exceed[i] = a > threshold[i] ? t : last_exceed[i];

        /* No floor during absolute refractory. A relative period that ends
           lifts the charge to the standard floor as well. */
        ph = phase[i];
        fl = ph == PH_STD ? std_rest[i] : ph == PH_REL ? ref_rest[i] : INT64_MIN;
        a = a < fl ? fl : a;
        if (ph != PH_STD && --phase_left[i] == 0) {
            if (ph == PH_REL) {
                phase[i] = PH_STD;
                a = a < std_rest[i] ? std_rest[i] : a;
            } else {
                phase[i] = rel_ref[i] > 0 ? PH_REL : PH_STD;
                phase_left[i] = rel_ref[i];
            }
        }
        acc[i] = a;
    }

    /* STDP: potentiation of the synapses into a neuron that exceeded in
       this cycle, depression of those into one whose last exceed the table
       reaches forward from. The header says why the loops do not branch. */
    if (table_len) /* an empty table: STDP is off */
        for (i = 0; i < n; i++) {
            if (last_exceed[i] == t)
                for (x = pre_start[i]; x < pre_start[i + 1]; x++) {
                    j = pre_list[x];
                    last = syn_last_delivery[j];
                    last = last >= 0 ? last : t - half - 1;
                    delta = half - (t - last);
                    ok = delta >= 0;
                    w = syn_weight[j] + (table[ok ? delta : 0] & -ok);
                    syn_weight[j] = w < lo ? lo : w > hi ? hi : w;
                }
            else if (last_exceed[i] >= 0 && half + (t - last_exceed[i]) < table_len) {
                delta = table[half + (t - last_exceed[i])];
                for (x = pre_start[i]; x < pre_start[i + 1]; x++) {
                    j = pre_list[x];
                    ok = syn_last_delivery[j] == t;
                    w = syn_weight[j] + (delta & -ok);
                    syn_weight[j] = w < lo ? lo : w > hi ? hi : w;
                }
            }
        }
    k->cycle = t + 1;
    return count;
}

/* Runs cycles steps. With counts, cycle c writes its fire count to
   counts[c] and logs its fired indices after those of the cycles before
   it, for rk_fired to copy out; with charges, it writes its charges to
   charges[c * n .. (c + 1) * n). counts needs room for cycles values and
   charges for cycles * n values. Every call starts an empty log. Returns
   the number of fires in the run, or -1 as rk_step does, also when the log
   cannot grow. */
int64_t rk_run(rk *k, int64_t cycles, int64_t *counts, int64_t *charges)
{
    int64_t c, count, total = 0;
    slot *fired = counts ? &k->fired : NULL;
    k->fired.size = 0;
    for (c = 0; c < cycles; c++) {
        count = rk_step(k, fired, charges ? charges + c * k->n : NULL);
        if (count < 0)
            return -1;
        if (counts)
            counts[c] = count;
        total += count;
    }
    return total;
}

/* Copies the fired indices the last rk_run logged into dst, which needs
   room for as many values as that call returned; dst may be NULL. Returns
   the number of indices logged. */
int64_t rk_fired(const rk *k, int64_t *dst)
{
    if (dst && k->fired.size)
        memcpy(dst, k->fired.data, (size_t)k->fired.size * sizeof *dst);
    return k->fired.size;
}

/* Copies the charges (n values), the synapse weights (n_syn values) and the
   phases followed by the cycles left in each (2n values) into the buffers
   given; any may be NULL. phase_left follows phase in the state block, so
   the phases take one copy. Returns the number of cycles run. */
int64_t rk_read(const rk *k, int64_t *charges, int64_t *weights, int64_t *phases)
{
    if (charges && k->n)
        memcpy(charges, k->acc, (size_t)k->n * sizeof *charges);
    if (weights && k->n_syn)
        memcpy(weights, k->syn_weight, (size_t)k->n_syn * sizeof *weights);
    if (phases && k->n)
        memcpy(phases, k->phase, (size_t)(2 * k->n) * sizeof *phases);
    return k->cycle;
}
