/**
 * @file
 * Field lists: each struct that is hashed into a memo key, sent over
 * the wire, stored or cross-checked describes its members once, in a
 * static list next to them:
 *
 *     template <class V>
 *     static void
 *     fields(V &v)
 *     {
 *         v("size_bytes", &CacheConfig::sizeBytes, kKey);
 *         ...
 *     }
 *
 * One row per member: wire name, member pointer, flags. Member pointers
 * let one walk read two objects in step (the differential compare) or
 * rewrite a copy (the property tests). The walkers are hashFields()
 * (exp/simcache.cc), writeJsonFields()/readJsonFields()
 * (obs/json_fields.hh) and diffFields() (verify/differential.hh);
 * DESIGN.md §10 gives the rules that keep old keys and entries stable.
 */

#ifndef POWERFITS_COMMON_FIELDS_HH
#define POWERFITS_COMMON_FIELDS_HH

#include <string>

namespace pfits
{

/** Row flags of a field list. */
enum FieldFlag : unsigned
{
    /** Key material: hashed into the memo key, in row order. */
    kKey = 1u << 0,

    /**
     * A late addition: optional on read (zero when absent). On a key
     * row it is also left out of the hash and the wire while zero (and
     * hashed as 1 + value otherwise), so older keys and requests keep
     * their bytes. Late rows are scalars.
     */
    kLate = 1u << 1,

    /** A 64-bit value carried as a "0x%016x" string (exact in JSON). */
    kHex = 1u << 2,
};

/**
 * Wire names of an enum a field list carries. Specialise next to the
 * enum with `static constexpr unsigned kCount` (values are 0..kCount-1)
 * and `static const char *name(E)`.
 */
template <class E>
struct FieldEnum;

/** Parse a FieldEnum name. @return false (out untouched) otherwise. */
template <class E>
bool
parseFieldEnum(const std::string &text, E *out)
{
    for (unsigned i = 0; i < FieldEnum<E>::kCount; ++i) {
        if (text == FieldEnum<E>::name(static_cast<E>(i))) {
            *out = static_cast<E>(i);
            return true;
        }
    }
    return false;
}

/** A visitor that accepts any row; used to detect a field list. */
struct AnyFieldRow
{
    template <class T, class M>
    void
    operator()(const char *, M T::*, unsigned = 0)
    {
    }
};

/** True for structs that carry a field list. */
template <class T>
concept HasFields = requires(AnyFieldRow &v) { T::fields(v); };

} // namespace pfits

#endif // POWERFITS_COMMON_FIELDS_HH
