/**
 * @file
 * The JSON walkers of the field lists (common/fields.hh): one writer
 * and one checked reader, used by the pfitsd wire, the store and
 * manifests. Rows go out in list order under their wire names; nested
 * lists become objects, vectors and arrays JSON arrays, enums their
 * names, kHex rows hex strings. Every integer is read through
 * getUnsigned, so a negative, fractional or out-of-range number fails
 * the read instead of being cast; a double must lie in [0, 2^53).
 */

#ifndef POWERFITS_OBS_JSON_FIELDS_HH
#define POWERFITS_OBS_JSON_FIELDS_HH

#include <limits>
#include <ranges>
#include <string>
#include <type_traits>

#include "common/fields.hh"
#include "obs/json.hh"

namespace pfits
{

/** Emit @p value (a listed struct or one row's value) as JSON. */
template <class M>
void
writeJsonFields(JsonWriter &w, const M &value, unsigned flags = 0)
{
    if constexpr (HasFields<M>) {
        w.beginObject();
        auto row = [&]<class F>(const char *name, F M::*member,
                                unsigned row_flags = 0) {
            if constexpr (std::is_scalar_v<F>) {
                if ((row_flags & kKey) && (row_flags & kLate) &&
                    value.*member == F{})
                    return;
            }
            w.key(name);
            writeJsonFields(w, value.*member, row_flags);
        };
        M::fields(row);
        w.endObject();
    } else if constexpr (std::is_enum_v<M>) {
        w.value(FieldEnum<M>::name(value));
    } else if constexpr (std::is_same_v<M, bool> ||
                         std::is_same_v<M, std::string>) {
        w.value(value);
    } else if constexpr (std::is_integral_v<M>) {
        if (flags & kHex)
            w.hexValue(value);
        else
            w.value(static_cast<uint64_t>(value));
    } else if constexpr (std::is_floating_point_v<M>) {
        w.value(static_cast<double>(value));
    } else {
        static_assert(std::ranges::range<M>, "no JSON form for M");
        w.beginArray();
        for (const auto &item : value)
            writeJsonFields(w, item, flags);
        w.endArray();
    }
}

/**
 * Read writeJsonFields output back into @p out. @return false when the
 * shape or any value is wrong; @p out is then partially assigned.
 */
template <class M>
bool
readJsonFields(const JsonValue &v, M &out, unsigned flags = 0)
{
    if constexpr (HasFields<M>) {
        if (!v.isObject())
            return false;
        bool ok = true;
        auto row = [&]<class F>(const char *name, F M::*member,
                                unsigned row_flags = 0) {
            const JsonValue &field = v.get(name);
            if constexpr (std::is_scalar_v<F>) {
                if ((row_flags & kLate) && field.isNull()) {
                    out.*member = F{};
                    return;
                }
            }
            ok = ok && readJsonFields(field, out.*member, row_flags);
        };
        M::fields(row);
        return ok;
    } else if constexpr (std::is_enum_v<M>) {
        return v.isString() && parseFieldEnum(v.asString(), &out);
    } else if constexpr (std::is_same_v<M, bool>) {
        if (!v.isBool())
            return false;
        out = v.asBool();
        return true;
    } else if constexpr (std::is_integral_v<M>) {
        if (flags & kHex) {
            uint64_t hex = 0;
            if (!v.isString() || !parseHexU64(v.asString(), &hex) ||
                hex > std::numeric_limits<M>::max())
                return false;
            out = static_cast<M>(hex);
            return true;
        }
        return getUnsigned(v, &out);
    } else if constexpr (std::is_floating_point_v<M>) {
        // [0, 2^53): every clock fits, and the memo-key hash's
        // conversion of the value to whole thousandths stays defined.
        if (!v.isNumber() || !(v.asNumber() >= 0 && v.asNumber() < 0x1p53))
            return false;
        out = v.asNumber();
        return true;
    } else if constexpr (std::is_same_v<M, std::string>) {
        if (!v.isString())
            return false;
        out = v.asString();
        return true;
    } else if constexpr (std::is_array_v<M>) {
        if (!v.isArray() || v.asArray().size() != std::extent_v<M>)
            return false;
        for (size_t i = 0; i < std::extent_v<M>; ++i)
            if (!readJsonFields(v.asArray()[i], out[i], flags))
                return false;
        return true;
    } else {
        if (!v.isArray())
            return false;
        out.clear();
        for (const JsonValue &item : v.asArray())
            if (!readJsonFields(item, out.emplace_back(), flags))
                return false;
        return true;
    }
}

} // namespace pfits

#endif // POWERFITS_OBS_JSON_FIELDS_HH
