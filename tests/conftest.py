"""Run order: the acceptance suite trains four desk models and takes minutes,
while every other test takes seconds, so the acceptance tests run after all
the others, and within them the criteria that need the desk training run
last. Nothing is skipped or deselected; only the order changes."""


def pytest_collection_modifyitems(session, config, items):
    def cost(item):
        acceptance = item.path.name == "test_acceptance.py"
        return (acceptance, acceptance and "desk_benchmark" in item.fixturenames)

    items.sort(key=cost)  # stable: the collection order holds within each rank
