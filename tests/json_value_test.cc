/**
 * @file
 * Tests for the tests' JSON parser (tests/support/json_value.hh): the
 * common shapes, malformed documents with their line, typed lookups
 * with fallbacks, and a missing file.
 */

#include <gtest/gtest.h>

#include <string>

#include "json_value.hh"

namespace uvolt
{
namespace
{

TEST(JsonParser, ParsesTheCommonShapes)
{
    const auto doc = json::Value::parse(
        "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": null, "
        "\"d\": [true, false]}, \"s\": \"q\\\"\\\\\\n\\u00e9\"}");
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    const json::Value &root = doc.value();
    const auto &a = root.at("a").items();
    ASSERT_EQ(a.size(), 3u);
    EXPECT_DOUBLE_EQ(a[0].number(), 1.0);
    EXPECT_DOUBLE_EQ(a[1].number(), 2.5);
    EXPECT_DOUBLE_EQ(a[2].number(), -300.0);
    EXPECT_TRUE(root.at("b").at("c").isNull());
    EXPECT_TRUE(root.at("b").at("d").items()[0].boolean());
    EXPECT_FALSE(root.at("b").at("d").items()[1].boolean());
    EXPECT_EQ(root.at("s").string(), "q\"\\\n\xe9");
}

TEST(JsonParser, RejectsMalformedDocuments)
{
    EXPECT_FALSE(json::Value::parse("").ok());
    EXPECT_FALSE(json::Value::parse("{").ok());
    EXPECT_FALSE(json::Value::parse("[1, 2").ok());
    EXPECT_FALSE(json::Value::parse("nul").ok());
    EXPECT_FALSE(json::Value::parse("{} trailing").ok());
    EXPECT_FALSE(json::Value::parse("{\"a\" 1}").ok());
    EXPECT_FALSE(json::Value::parse("\"unterminated").ok());
    const auto err = json::Value::parse("{\n\"a\": nope\n}");
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.error().code, Errc::corruptCache);
    EXPECT_NE(err.error().message.find("line 2"), std::string::npos)
        << err.error().message;
}

TEST(JsonParser, TypedLookupsFallBack)
{
    const auto doc =
        json::Value::parse("{\"n\": 4, \"s\": \"x\"}");
    ASSERT_TRUE(doc.ok());
    const json::Value &root = doc.value();
    EXPECT_DOUBLE_EQ(root.numberOr("n", -1.0), 4.0);
    EXPECT_DOUBLE_EQ(root.numberOr("missing", -1.0), -1.0);
    EXPECT_EQ(root.stringOr("s", "d"), "x");
    EXPECT_EQ(root.stringOr("missing", "d"), "d");
    EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(JsonParser, MissingFileIsCacheMiss)
{
    const auto doc = json::Value::parseFile("/nonexistent/x.json");
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.error().code, Errc::cacheMiss);
}

} // namespace
} // namespace uvolt
