// Tests for relations, databases, TID databases, and the text loader.

#include <gtest/gtest.h>

#include "hierarq/data/database.h"
#include "hierarq/data/loader.h"
#include "hierarq/data/tid_database.h"

namespace hierarq {
namespace {

TEST(Relation, InsertDeduplicates) {
  Relation r("R", 2);
  EXPECT_TRUE(r.Insert(MakeTuple({1, 2})));
  EXPECT_FALSE(r.Insert(MakeTuple({1, 2})));
  EXPECT_TRUE(r.Insert(MakeTuple({1, 3})));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(MakeTuple({1, 2})));
  EXPECT_FALSE(r.Contains(MakeTuple({2, 1})));
}

TEST(Relation, Erase) {
  Relation r("R", 1);
  r.Insert(MakeTuple({1}));
  r.Insert(MakeTuple({2}));
  EXPECT_TRUE(r.Erase(MakeTuple({1})));
  EXPECT_FALSE(r.Erase(MakeTuple({1})));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(MakeTuple({2})));
}

TEST(Relation, ToString) {
  Relation r("Edge", 2);
  r.Insert(MakeTuple({1, 2}));
  EXPECT_EQ(r.ToString(), "Edge{(1,2)}");
}

TEST(Database, AddFactCreatesRelations) {
  Database db;
  ASSERT_TRUE(db.AddFact("R", MakeTuple({1, 2})).ok());
  ASSERT_TRUE(db.AddFact("S", MakeTuple({3})).ok());
  EXPECT_EQ(db.NumFacts(), 2u);
  EXPECT_NE(db.FindRelation("R"), nullptr);
  EXPECT_EQ(db.FindRelation("T"), nullptr);
}

TEST(Database, ArityMismatchRejected) {
  Database db;
  ASSERT_TRUE(db.AddFact("R", MakeTuple({1, 2})).ok());
  auto bad = db.AddFact("R", MakeTuple({1}));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(Database, DuplicateFactReturnsFalse) {
  Database db;
  EXPECT_TRUE(*db.AddFact("R", MakeTuple({1})));
  EXPECT_FALSE(*db.AddFact("R", MakeTuple({1})));
  EXPECT_EQ(db.NumFacts(), 1u);
}

TEST(Database, ContainsAndErase) {
  Database db;
  db.AddFactOrDie("R", MakeTuple({1, 2}));
  const Fact f{"R", MakeTuple({1, 2})};
  EXPECT_TRUE(db.ContainsFact(f));
  EXPECT_TRUE(db.EraseFact(f));
  EXPECT_FALSE(db.ContainsFact(f));
  EXPECT_FALSE(db.EraseFact(f));
  EXPECT_FALSE(db.EraseFact(Fact{"Nope", MakeTuple({1})}));
}

TEST(Database, AllFactsDeterministicOrder) {
  Database db;
  db.AddFactOrDie("S", MakeTuple({2}));
  db.AddFactOrDie("R", MakeTuple({1}));
  db.AddFactOrDie("R", MakeTuple({0}));
  const auto facts = db.AllFacts();
  ASSERT_EQ(facts.size(), 3u);
  // Relations iterate in name order; tuples in insertion order.
  EXPECT_EQ(facts[0].ToString(), "R(1)");
  EXPECT_EQ(facts[1].ToString(), "R(0)");
  EXPECT_EQ(facts[2].ToString(), "S(2)");
}

TEST(Database, UnionWith) {
  Database a;
  a.AddFactOrDie("R", MakeTuple({1}));
  Database b;
  b.AddFactOrDie("R", MakeTuple({2}));
  b.AddFactOrDie("S", MakeTuple({1, 1}));
  auto u = a.UnionWith(b);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->NumFacts(), 3u);
  EXPECT_TRUE(u->ContainsFact("R", MakeTuple({1})));
  EXPECT_TRUE(u->ContainsFact("R", MakeTuple({2})));

  // Arity clash across databases is surfaced.
  Database c;
  c.AddFactOrDie("R", MakeTuple({1, 2}));
  EXPECT_FALSE(a.UnionWith(c).ok());
}

TEST(Fact, OrderingAndHash) {
  const Fact a{"R", MakeTuple({1})};
  const Fact b{"R", MakeTuple({2})};
  const Fact c{"S", MakeTuple({0})};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (Fact{"R", MakeTuple({1})}));
  FactHash h;
  EXPECT_EQ(h(a), h(Fact{"R", MakeTuple({1})}));
  EXPECT_NE(h(a), h(b));
}

TEST(TidDatabase, ProbabilitiesClampedAndStored) {
  TidDatabase db;
  db.AddFactOrDie("R", MakeTuple({1}), 0.25);
  db.AddFactOrDie("R", MakeTuple({2}), 2.0);   // Clamped to 1.
  db.AddFactOrDie("R", MakeTuple({3}), -0.5);  // Clamped to 0.
  EXPECT_DOUBLE_EQ(db.Probability(Fact{"R", MakeTuple({1})}), 0.25);
  EXPECT_DOUBLE_EQ(db.Probability(Fact{"R", MakeTuple({2})}), 1.0);
  EXPECT_DOUBLE_EQ(db.Probability(Fact{"R", MakeTuple({3})}), 0.0);
  EXPECT_DOUBLE_EQ(db.Probability(Fact{"R", MakeTuple({9})}), 0.0);
}

TEST(TidDatabase, ReAddOverwritesProbability) {
  TidDatabase db;
  db.AddFactOrDie("R", MakeTuple({1}), 0.25);
  db.AddFactOrDie("R", MakeTuple({1}), 0.75);
  EXPECT_EQ(db.NumFacts(), 1u);
  EXPECT_DOUBLE_EQ(db.Probability(Fact{"R", MakeTuple({1})}), 0.75);
}

TEST(Loader, ParsesPlainDatabase) {
  auto db = LoadDatabase(R"(
    # Figure 1a
    R(1, 5)
    S(1, 1)
    S(1, 2)
    T(1, 2, 4)   # trailing comment
  )",
                         nullptr);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->NumFacts(), 4u);
  EXPECT_TRUE(db->ContainsFact("T", MakeTuple({1, 2, 4})));
}

TEST(Loader, SymbolicValuesNeedDictionary) {
  EXPECT_FALSE(LoadDatabase("R(alice)", nullptr).ok());
  Dictionary dict;
  auto db = LoadDatabase("R(alice)\nR(bob)\nS(alice, bob)", &dict);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->NumFacts(), 3u);
  const Value alice = *dict.Find("alice");
  EXPECT_TRUE(Dictionary::IsSymbolic(alice));
  EXPECT_TRUE(db->ContainsFact("R", MakeTuple({alice})));
  EXPECT_EQ(dict.Render(alice), "alice");
  EXPECT_EQ(dict.Render(42), "42");
}

TEST(Loader, ProbabilityAnnotationOnlyInTid) {
  EXPECT_FALSE(LoadDatabase("R(1) @ 0.5", nullptr).ok());
  auto tid = LoadTidDatabase("R(1) @ 0.5\nR(2)", nullptr);
  ASSERT_TRUE(tid.ok());
  EXPECT_DOUBLE_EQ(tid->Probability(Fact{"R", MakeTuple({1})}), 0.5);
  EXPECT_DOUBLE_EQ(tid->Probability(Fact{"R", MakeTuple({2})}), 1.0);
}

TEST(Loader, NonFiniteProbabilityIsALineError) {
  for (const char* weight : {"nan", "inf", "-inf"}) {
    auto tid = LoadTidDatabase(std::string("R(1,1) @ 0.5\nR(1,2) @ ") + weight,
                               nullptr);
    ASSERT_FALSE(tid.ok()) << weight;
    EXPECT_NE(tid.status().message().find("line 2"), std::string::npos)
        << tid.status();
  }
}

TEST(Loader, ErrorsCarryLineNumbers) {
  auto db = LoadDatabase("R(1)\nnot a fact\n", nullptr);
  ASSERT_FALSE(db.ok());
  EXPECT_NE(db.status().message().find("line 2"), std::string::npos);
}

TEST(Loader, EmptyAndCommentOnlyInput) {
  auto db = LoadDatabase("\n  # nothing here\n\n", nullptr);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->NumFacts(), 0u);
}

TEST(Loader, NullaryFacts) {
  auto db = LoadDatabase("R()", nullptr);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->ContainsFact("R", Tuple{}));
}

TEST(Dictionary, InternStable) {
  Dictionary dict;
  const Value a1 = dict.Intern("x");
  const Value a2 = dict.Intern("x");
  const Value b = dict.Intern("y");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(dict.size(), 2u);
}

}  // namespace
}  // namespace hierarq
