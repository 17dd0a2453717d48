/**
 * @file
 * One field list per JSON wire record, visited in both directions.
 *
 * A record that crosses a pipe or lands in a file lists its members
 * once, in wire order, as an overload in namespace rana (found by
 * argument-dependent lookup):
 *
 *     void visitFields(auto &v, FieldsOf<Record> auto &record)
 *     {
 *         v.field("key", record.member);
 *         ...
 *     }
 *
 * JsonFieldWriter walks that list over a const record and emits each
 * member through JsonWriter; JsonFieldReader walks the same list over
 * a fresh record and fills each member from a parsed JsonValue, so
 * key names and key order cannot drift apart between the two.
 *
 * Member types and their wire form:
 *  - std::string, bool, and double (non-finite values as the
 *    writer's sentinel strings);
 *  - integers as non-negative JSON integers; the reader rejects a
 *    value that does not fit the member's type (above 2^32 - 1 for
 *    a uint32_t, above 2^31 - 1 for an int) instead of wrapping it;
 *  - char as a one-character string;
 *  - std::array<number, N> as an array of exactly N numbers;
 *  - std::vector of numbers or of records as an array;
 *  - a record with its own field list as a nested object.
 *
 * Besides field(), a list may use schema() (the document's "schema"
 * tag, checked on read), wallClock() (a timing member the canonical
 * comparison form drops) and members() (a nested object with its own
 * write/parse functions, such as the metrics snapshot).
 *
 * The reader is crash-free on hostile input: the first member that
 * is missing, mistyped or out of range stops it with
 * ErrorCode::ParseError, and later members are skipped.
 */

#ifndef RANA_UTIL_JSON_FIELDS_HH_
#define RANA_UTIL_JSON_FIELDS_HH_

#include <array>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/json_reader.hh"
#include "util/json_writer.hh"
#include "util/result.hh"

namespace rana {

/**
 * `T` is `Record` or `const Record`: one field list serves the
 * writer (const records) and the reader (mutable ones).
 */
template <typename T, typename Record>
concept FieldsOf = std::same_as<std::remove_const_t<T>, Record>;

namespace json_fields_detail {

template <typename T>
struct IsSequence : std::false_type
{
};
template <typename T, std::size_t N>
struct IsSequence<std::array<T, N>> : std::true_type
{
};
template <typename T>
struct IsSequence<std::vector<T>> : std::true_type
{
};

} // namespace json_fields_detail

/** The ParseError a reader reports for member `key` of `what`. */
inline Error
fieldError(const char *what, const char *key)
{
    return makeError(ErrorCode::ParseError, what,
                     " field missing, mistyped or out of range: ", key);
}

/** Emits a record's field list through a JsonWriter. */
class JsonFieldWriter
{
  public:
    /**
     * @param dropWallClock omit wallClock() members: the canonical
     *        comparison form, whose bytes must not depend on timing.
     */
    explicit JsonFieldWriter(JsonWriter &json, bool dropWallClock = false)
        : json_(json), dropWallClock_(dropWallClock)
    {
    }

    /** Emit member `key` in its wire form (see the file comment). */
    template <typename T>
    void field(const char *key, const T &value)
    {
        if constexpr (std::is_same_v<T, char>) {
            json_.field(key, std::string(1, value));
        } else if constexpr (std::is_same_v<T, std::string> ||
                             std::is_same_v<T, bool> ||
                             std::is_same_v<T, double>) {
            json_.field(key, value);
        } else if constexpr (std::is_integral_v<T>) {
            json_.field(key, static_cast<std::uint64_t>(value));
        } else if constexpr (json_fields_detail::IsSequence<T>::value) {
            json_.beginArray(key);
            for (const auto &item : value)
                element(item);
            json_.endArray();
        } else {
            json_.beginObject(key);
            visitFields(*this, value);
            json_.endObject();
        }
    }

    /** A wall-clock timing member: emitted unless dropWallClock. */
    void wallClock(const char *key, double value)
    {
        if (!dropWallClock_)
            field(key, value);
    }

    /** The document's "schema" tag. */
    void schema(const char *name) { json_.field("schema", name); }

    /** Nested object `key` written by `write` (`parse` is the
     *  reader's half of the same codec). */
    template <typename T>
    void members(const char *key, const T &value,
                 void (*write)(JsonWriter &, const T &),
                 Result<T> (*)(const JsonValue &))
    {
        json_.beginObject(key);
        write(json_, value);
        json_.endObject();
    }

  private:
    template <typename T>
    void element(const T &item)
    {
        if constexpr (std::is_floating_point_v<T>) {
            json_.element(item);
        } else if constexpr (std::is_integral_v<T>) {
            json_.element(static_cast<std::uint64_t>(item));
        } else {
            json_.beginObject();
            visitFields(*this, item);
            json_.endObject();
        }
    }

    JsonWriter &json_;
    bool dropWallClock_;
};

/** Fills a record's field list from a parsed JSON object. */
class JsonFieldReader
{
  public:
    /** @param what names the document in error messages. */
    JsonFieldReader(const JsonValue &object, const char *what)
        : object_(object), what_(what)
    {
    }

    /** The first failure, if any member failed. */
    const std::optional<Error> &error() const { return error_; }

    /** Fill `value` from member `key` (see the file comment). */
    template <typename T>
    void field(const char *key, T &value)
    {
        if (!error_)
            read(object_.find(key), key, &value);
    }

    /** Timing members are read like any other. */
    void wallClock(const char *key, double &value) { field(key, value); }

    /** Require the document's "schema" tag to be `name`. */
    void schema(const char *name)
    {
        std::string schema;
        field("schema", schema);
        if (!error_ && schema != name) {
            error_ = makeError(ErrorCode::ParseError, "not a ", name,
                               " document: schema=", schema);
        }
    }

    /** Fill `value` from nested object `key` through `parse`. */
    template <typename T>
    void members(const char *key, T &value,
                 void (*)(JsonWriter &, const T &),
                 Result<T> (*parse)(const JsonValue &))
    {
        if (error_)
            return;
        const JsonValue *item = object_.find(key);
        if (item == nullptr || !item->isObject())
            return fail(key);
        Result<T> parsed = parse(*item);
        if (!parsed.ok())
            error_ = parsed.error();
        else
            value = std::move(parsed).value();
    }

  private:
    /** Read `item` (nullptr when absent) into `out`. */
    template <typename T>
    void read(const JsonValue *item, const char *key, T *out)
    {
        if (item == nullptr)
            return fail(key);
        if constexpr (std::is_same_v<T, std::string>) {
            if (!item->isString())
                return fail(key);
            *out = item->asString();
        } else if constexpr (std::is_same_v<T, bool>) {
            if (!item->isBool())
                return fail(key);
            *out = item->asBool();
        } else if constexpr (std::is_same_v<T, char>) {
            if (!item->isString() || item->asString().size() != 1)
                return fail(key);
            *out = item->asString()[0];
        } else if constexpr (std::is_same_v<T, double>) {
            if (!item->numberOrSentinel(out))
                return fail(key);
        } else if constexpr (std::is_integral_v<T>) {
            std::uint64_t number = 0;
            if (!item->asUint(&number) ||
                number > static_cast<std::uint64_t>(
                             std::numeric_limits<T>::max()))
                return fail(key);
            *out = static_cast<T>(number);
        } else if constexpr (json_fields_detail::IsSequence<T>::value) {
            if (!item->isArray())
                return fail(key);
            const std::vector<JsonValue> &items = item->items();
            if constexpr (requires { out->resize(items.size()); })
                out->resize(items.size());
            else if (items.size() != out->size())
                return fail(key);
            for (std::size_t i = 0; i < items.size() && !error_; ++i)
                read(&items[i], key, &(*out)[i]);
        } else {
            if (!item->isObject())
                return fail(key);
            JsonFieldReader nested(*item, what_);
            visitFields(nested, *out);
            error_ = nested.error_;
        }
    }

    void fail(const char *key) { error_ = fieldError(what_, key); }

    const JsonValue &object_;
    const char *what_;
    std::optional<Error> error_;
};

/** `record` as one JSON object document. */
template <typename Record>
std::string
writeJsonRecord(const Record &record, bool dropWallClock = false)
{
    JsonWriter json;
    json.beginObject();
    JsonFieldWriter writer(json, dropWallClock);
    visitFields(writer, record);
    json.endObject();
    return json.str();
}

/**
 * Parse `text` as one JSON object document holding a `Record`; any
 * malformed, truncated or out-of-range input fails with ParseError.
 */
template <typename Record>
Result<Record>
parseJsonRecord(const std::string &text, const char *what)
{
    Result<JsonValue> parsed = JsonValue::parse(text);
    if (!parsed.ok())
        return parsed.error();
    if (!parsed.value().isObject()) {
        return makeError(ErrorCode::ParseError, what,
                         " is not a JSON object");
    }
    Record record;
    JsonFieldReader reader(parsed.value(), what);
    visitFields(reader, record);
    if (reader.error())
        return *reader.error();
    return record;
}

} // namespace rana

#endif // RANA_UTIL_JSON_FIELDS_HH_
